// Fixture for the sentinelerr analyzer's comparison rule: identity
// comparison against a sentinel error breaks once the error is wrapped
// (use errors.Is). The wrap-chain rules have their own fixture in
// testdata/errwrapchain.
package fixture

import (
	"errors"

	maxbrstknn "repro"
)

var ErrFixture = errors.New("fixture sentinel")

var errInternal = errors.New("not a sentinel by naming convention")

func identityLocal(err error) bool {
	return err == ErrFixture // want "comparing against sentinel ErrFixture"
}

func identityNegated(err error) bool {
	return err != ErrFixture // want "comparing against sentinel ErrFixture"
}

func identityQualified(err error) bool {
	return err == maxbrstknn.ErrNoSuchObject // want "comparing against sentinel ErrNoSuchObject"
}

func viaErrorsIs(err error) bool { // negative: the idiom we want
	return errors.Is(err, ErrFixture)
}

func nilCheck(err error) bool { // negative: nil checks are fine
	return err == nil
}

func lowercaseName(err error) bool { // negative: not the Err[A-Z] convention
	return err == errInternal
}

func suppressedIdentity(err error) bool {
	//maxbr:ignore sentinelerr fixture exercising the suppression path
	return err == ErrFixture
}
