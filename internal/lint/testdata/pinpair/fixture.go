// Fixture for the pinpair analyzer: epoch pins and sessions must be
// released on every path or handed off explicitly.
package fixture

import (
	maxbrstknn "repro"
	"repro/internal/storage"
)

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

func sessionRunReturned(ix *maxbrstknn.Index, req maxbrstknn.Request) (maxbrstknn.Result, error) {
	s, err := ix.NewSession(req.Users, req.K) // want "acquires a session that is never closed"
	if err != nil {
		return maxbrstknn.Result{}, err
	}
	return s.Run(req) // the result, not the session, is handed over
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

func sessionDroppedBesideAssigned(ix *maxbrstknn.Index, users []maxbrstknn.UserSpec) error {
	s, err := ix.NewSession(users, 3)
	if err != nil {
		return err
	}
	defer s.Close()
	ix.NewSession(users, 3) // want "drops the session"
	return nil
}
