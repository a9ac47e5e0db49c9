// Package parallel provides the bounded fan-out/fan-in primitives the
// query engine's parallel paths share. The helpers are deliberately
// minimal: deterministic result placement is the caller's job (write to
// index i of a pre-sized slice), so every user of this package stays
// byte-identical to its sequential counterpart regardless of scheduling.
package parallel

import (
	"sync"
	"sync/atomic"
)

// Workers returns the number of goroutines ForNWorkers actually uses for
// n items under a requested bound — the size callers give their
// per-worker scratch slices. Zero when there is nothing to run.
func Workers(n, workers int) int {
	if n <= 0 {
		return 0
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// ForNWorkers runs fn(w, i) for every i in [0, n), using up to workers
// goroutines. With workers <= 1 (or n <= 1) it degenerates to a plain loop
// on the calling goroutine — the sequential special case, run as worker 0.
// Iterations are handed out through an atomic cursor, so uneven per-item
// cost self-balances. w lies in [0, Workers(n, workers)), and no two
// invocations with the same w ever overlap — so fn may key mutable
// per-worker scratch (reused sum and top-k buffers) by w without locking;
// other writes must stay confined to per-index state.
func ForNWorkers(n, workers int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	workers = Workers(n, workers)
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}
