package storage

import "sync/atomic"

// IOCounter implements the simulated I/O accounting of Section 8: visiting
// a tree node costs one I/O; loading an inverted file costs one I/O per
// 4 kB block of the stored list. The experiments report these counts, not
// physical disk reads, because (as the paper notes) multiple cache layers
// sit between the process and the disk.
//
// The counters are atomic so concurrent traversals (the parallel query
// engine runs group traversals on a worker pool) can share one counter;
// totals remain exact, only the interleaving is unordered.
type IOCounter struct {
	nodeVisits atomic.Int64
	invBlocks  atomic.Int64
}

// NodeVisit records one tree-node access.
func (c *IOCounter) NodeVisit() { c.nodeVisits.Add(1) }

// InvFileLoad records loading an inverted file spanning blocks pages.
func (c *IOCounter) InvFileLoad(blocks int) { c.invBlocks.Add(int64(blocks)) }

// NodeVisits returns the number of node accesses recorded.
func (c *IOCounter) NodeVisits() int64 { return c.nodeVisits.Load() }

// InvBlocks returns the number of inverted-file blocks charged.
func (c *IOCounter) InvBlocks() int64 { return c.invBlocks.Load() }

// Total returns the combined simulated I/O count.
func (c *IOCounter) Total() int64 { return c.nodeVisits.Load() + c.invBlocks.Load() }

// Reset zeroes the counter (a "cold query" boundary).
func (c *IOCounter) Reset() {
	c.nodeVisits.Store(0)
	c.invBlocks.Store(0)
}
