// Fixture for the pinpair analyzer: epoch pins, sessions, and mutexes
// must be released on every path or handed off explicitly.
package fixture

import (
	"sync"

	maxbrstknn "repro"
	"repro/internal/storage"
)

type guarded struct {
	mu sync.Mutex
	rw sync.RWMutex
	n  int
}

func lockWithoutUnlock(g *guarded) {
	g.mu.Lock() // want "locks g.mu but never calls Unlock"
	g.n++
}

func lockWithDefer(g *guarded) { // negative
	g.mu.Lock()
	defer g.mu.Unlock()
	g.n++
}

func rlockWithoutRUnlock(g *guarded) int {
	g.rw.RLock() // want "locks g.rw but never calls RUnlock"
	return g.n
}

func rwPaired(g *guarded) int { // negative: RLock/RUnlock balance
	g.rw.RLock()
	defer g.rw.RUnlock()
	return g.n
}

func closureMustBalanceItself(g *guarded) func() {
	return func() {
		g.mu.Lock() // want "locks g.mu but never calls Unlock"
		g.n++
	}
}

func pinLeak(pins *storage.EpochPins, e uint64) int {
	if !pins.TryPin(e) { // want "pins pins via TryPin but never calls Unpin"
		return 0
	}
	return 1
}

func pinPaired(pins *storage.EpochPins, e uint64) int { // negative
	if !pins.TryPin(e) {
		return 0
	}
	defer pins.Unpin(e)
	return 1
}

func pinDelegated(pins *storage.EpochPins, e uint64) bool { // negative: caller owns it
	return pins.TryPin(e)
}

func sessionLeak(ix *maxbrstknn.Index, users []maxbrstknn.UserSpec) error {
	s, err := ix.NewSession(users, 3) // want "acquires a session that is never closed"
	if err != nil {
		return err
	}
	_ = s
	return nil
}

func sessionClosed(ix *maxbrstknn.Index, users []maxbrstknn.UserSpec) error { // negative
	s, err := ix.NewSession(users, 3)
	if err != nil {
		return err
	}
	defer s.Close()
	return nil
}

func sessionReturned(ix *maxbrstknn.Index, users []maxbrstknn.UserSpec) (*maxbrstknn.Session, error) { // negative: ownership transferred
	s, err := ix.NewSession(users, 3)
	if err != nil {
		return nil, err
	}
	return s, nil
}

func sessionDelegated(ix *maxbrstknn.Index, users []maxbrstknn.UserSpec) (*maxbrstknn.Session, error) { // negative
	return ix.NewSession(users, 3)
}

type holder struct{ s *maxbrstknn.Session }

func sessionStored(ix *maxbrstknn.Index, users []maxbrstknn.UserSpec) (*holder, error) { // negative: escapes into a struct
	s, err := ix.NewSession(users, 3)
	if err != nil {
		return nil, err
	}
	return &holder{s: s}, nil
}

func unpreparedSessionLeak(ix *maxbrstknn.Index, users []maxbrstknn.UserSpec) error {
	s, err := ix.NewUnpreparedSession(users, 3) // want "acquires a session that is never closed"
	if err != nil {
		return err
	}
	_, err = s.Phase1(nil, maxbrstknn.ParallelOptions{})
	return err
}

func unpreparedSessionClosed(ix *maxbrstknn.Index, users []maxbrstknn.UserSpec) error { // negative
	s, err := ix.NewUnpreparedSession(users, 3)
	if err != nil {
		return err
	}
	defer s.Close()
	_, err = s.Phase1(nil, maxbrstknn.ParallelOptions{})
	return err
}
