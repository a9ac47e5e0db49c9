// Fixture for the sentinelerr analyzer's wrap-chain rules: a sentinel
// through fmt.Errorf must be its first argument under a constant format
// beginning with %w, and errors.Is against a freshly built error is
// constantly false.
package fixture

import (
	"errors"
	"fmt"
)

var (
	ErrMissing = errors.New("missing")
	ErrClosed  = errors.New("closed")
)

// wrapsWrong flattens the sentinel: errors.Is(err, ErrMissing) upstream
// stops matching.
func wrapsWrong(id int) error {
	return fmt.Errorf("load %d: %v", id, ErrMissing) // want "sentinel ErrMissing must be fmt.Errorf's first argument"
}

// wrapsString is the same bug through %s.
func wrapsString(name string) error {
	return fmt.Errorf("open %q: %s", name, ErrClosed) // want "sentinel ErrClosed must be fmt.Errorf's first argument"
}

// wrapsLate keeps the chain with %w, but not in the one accepted form.
func wrapsLate(id int) error {
	return fmt.Errorf("load %d: %w", id, ErrMissing) // want "sentinel ErrMissing must be fmt.Errorf's first argument"
}

// dynamicFormat hides the verbs.
func dynamicFormat(f string) error {
	return fmt.Errorf(f, ErrMissing) // want "under a constant format"
}

// alwaysFalse compares against an error nothing could have wrapped.
func alwaysFalse(err error) bool {
	return errors.Is(err, errors.New("nope")) // want "always false"
}

// alwaysFalsef is the fmt.Errorf flavor.
func alwaysFalsef(err error) bool {
	return errors.Is(err, fmt.Errorf("nope")) // want "always false"
}

// wrapsRight keeps the chain intact.
func wrapsRight(id int) error { // negative
	return fmt.Errorf("%w: load %d", ErrMissing, id)
}

// isSentinel is the correct comparison.
func isSentinel(err error) bool { // negative
	return errors.Is(err, ErrMissing)
}

// noSentinelArgs has nothing to wrap.
func noSentinelArgs(id int) error { // negative
	return fmt.Errorf("load %d failed", id)
}
