//go:build race

package irtree

// raceEnabled: the race detector makes sync.Pool drop a share of its Puts
// on purpose, so tests that pin pooled allocations use a looser bound under it.
const raceEnabled = true
