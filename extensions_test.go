package maxbrstknn

import (
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"
)

// TestCover holds the greedy multi-placement on its own, over a round
// that wins the first unpoisoned user of rsk and, beside it, ids no
// cohort holds.
func TestCover(t *testing.T) {
	rsk := []float64{0.5, 0.25, 0, 0.75}
	before := slices.Clone(rsk)
	calls := 0
	round := func(th []float64) (Result, error) {
		calls++
		for u, v := range th {
			if v != math.MaxFloat64 {
				return Result{LocationIndex: u, UserIDs: []int{-1, u, len(th) + 2}}, nil
			}
		}
		return Result{LocationIndex: -1}, nil
	}

	got, err := Cover(100, rsk, round)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rsk) || calls != len(rsk)+1 {
		t.Fatalf("m = 100 over %d users: %d rounds in %d calls, want %d in %d", len(rsk), len(got), calls, len(rsk), len(rsk)+1)
	}
	for i, r := range got {
		if r.LocationIndex != i {
			t.Fatalf("round %d won user %d: an earlier round's user was not poisoned", i, r.LocationIndex)
		}
	}
	if !reflect.DeepEqual(rsk, before) {
		t.Fatalf("Cover modified rsk: %v, was %v", rsk, before)
	}

	calls = 0
	if got, err := Cover(2, rsk, round); err != nil || len(got) != 2 || calls != 2 {
		t.Fatalf("m = 2: %d rounds in %d calls (%v), want 2 in 2", len(got), calls, err)
	}

	none := func([]float64) (Result, error) { return Result{LocationIndex: -1}, nil }
	if got, err := Cover(3, rsk, none); err != nil || got == nil || len(got) != 0 {
		t.Fatalf("no winning round: %#v (%v), want a non-nil empty slice", got, err)
	}

	fault := errors.New("round failed")
	if _, err := Cover(3, rsk, func([]float64) (Result, error) { return Result{}, fault }); !errors.Is(err, fault) {
		t.Fatalf("a failing round: %v, want %v", err, fault)
	}

	idx, req := paperExample(t)
	s, err := idx.NewSession(req.Users, req.K)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.RunMultiple(req, 0); err == nil {
		t.Error("RunMultiple(req, 0) = nil error, want m rejected")
	}
}
