package parallel

import (
	"sync/atomic"
	"testing"
)

func TestForNCoversAllIndexes(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8, 100} {
		n := 57
		seen := make([]atomic.Int32, n)
		ForNWorkers(n, workers, func(w, i int) {
			if w < 0 || w >= Workers(n, workers) {
				t.Errorf("workers=%d: worker index %d out of range", workers, w)
			}
			seen[i].Add(1)
		})
		for i := range seen {
			if got := seen[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
}

func TestForNEmpty(t *testing.T) {
	called := false
	ForNWorkers(0, 4, func(int, int) { called = true })
	ForNWorkers(-3, 4, func(int, int) { called = true })
	if called {
		t.Fatal("fn called for empty range")
	}
}

func TestForNSequentialOrder(t *testing.T) {
	// workers <= 1 must run in index order on the calling goroutine, as
	// worker 0.
	var order []int
	ForNWorkers(5, 1, func(w, i int) {
		if w != 0 {
			t.Errorf("sequential worker index %d, want 0", w)
		}
		order = append(order, i)
	})
	if len(order) != 5 {
		t.Fatalf("sequential ForNWorkers ran %d items, want 5", len(order))
	}
	for i, v := range order {
		if i != v {
			t.Fatalf("sequential ForNWorkers out of order: %v", order)
		}
	}
}
