//go:build race

package topk

// raceEnabled: the race detector makes sync.Pool drop a share of its Puts
// on purpose, so tests that pin pooled allocations skip under it.
const raceEnabled = true
