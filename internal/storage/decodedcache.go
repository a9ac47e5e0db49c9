package storage

import "sync"

// DecodedCache is the second cache level above BufferPool: where the pool
// caches raw record bytes, this caches *decoded objects* (inverted files,
// tree nodes) keyed by the PageID of the record they were decoded from, so
// repeated traversals and concurrent serving requests skip varint decode
// entirely.
//
// The cache is sharded — a power-of-two shard count, each shard its own
// mutex plus LRU list — so the parallel query engine's workers and the
// HTTP serving layer's request goroutines do not contend on one lock the
// way they would on the byte-level pool.
//
// Capacity is a byte budget, not an entry count: every Put carries the
// entry's approximate resident size (as reported by the value's own
// accounting, e.g. invfile.File.MemBytes), each shard owns an equal slice
// of the budget, and inserting past it evicts least-recently-used entries
// until the shard fits. Stats reports the resident total honestly.
//
// Aliasing contract: cached values are shared between all callers and
// goroutines. A value obtained from Get (or inserted with Put) must be
// treated as immutable — mutation paths (tree inserts) must decode private
// copies instead.
type DecodedCache struct {
	shards []decodedShard
	mask   uint64
}

// DecodedCacheStats is a point-in-time snapshot of cache effectiveness
// and residency.
type DecodedCacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
	// Bytes is the approximate resident size of all cached values — the
	// per-entry accounting supplied at Put time, summed.
	Bytes int64
	// CapBytes is the configured byte budget.
	CapBytes int64
}

type decodedShard struct {
	mu       sync.Mutex
	entries  map[PageID]*decodedNode
	head     *decodedNode // most recently used
	tail     *decodedNode // least recently used
	bytes    int64
	capBytes int64
	hits     int64
	misses   int64
	evicted  int64
}

type decodedNode struct {
	id         PageID
	value      any
	bytes      int64
	prev, next *decodedNode
}

// DefaultDecodedShards is the shard count used when NewDecodedCache is
// given a non-positive one — enough to keep a 16-goroutine serving load
// off any single mutex.
const DefaultDecodedShards = 16

// NewDecodedCache returns a cache with the given byte budget, split over
// shards (rounded up to a power of two; non-positive selects
// DefaultDecodedShards). A non-positive budget returns nil — the "no
// decoded cache" configuration, on which every method is a safe no-op.
func NewDecodedCache(capBytes int64, shards int) *DecodedCache {
	if capBytes <= 0 {
		return nil
	}
	if shards <= 0 {
		shards = DefaultDecodedShards
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	c := &DecodedCache{shards: make([]decodedShard, n), mask: uint64(n - 1)}
	per := capBytes / int64(n)
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i] = decodedShard{entries: make(map[PageID]*decodedNode), capBytes: per}
	}
	return c
}

// shardOf maps a PageID to its shard. IDs are contiguous allocation
// order, so the identity hash spreads neighboring records evenly.
func (c *DecodedCache) shardOf(id PageID) *decodedShard {
	h := uint64(id)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return &c.shards[h&c.mask]
}

// Get returns the cached decoded value for id, if present. The returned
// value is shared — see the aliasing contract in the type comment.
func (c *DecodedCache) Get(id PageID) (any, bool) {
	if c == nil {
		return nil, false
	}
	s := c.shardOf(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.entries[id]
	if !ok {
		s.misses++
		return nil, false
	}
	s.hits++
	s.moveToFront(n)
	return n.value, true
}

// Put inserts a decoded value of the given approximate resident size,
// evicting least-recently-used entries past the shard's byte budget. A
// racing Put for the same id keeps the first-inserted value (both decode
// the same immutable record, so either is correct). Values larger than
// the shard budget are not cached at all.
func (c *DecodedCache) Put(id PageID, value any, bytes int64) {
	if c == nil {
		return
	}
	if bytes < 1 {
		bytes = 1
	}
	s := c.shardOf(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if bytes > s.capBytes {
		return
	}
	if _, ok := s.entries[id]; ok {
		return
	}
	n := &decodedNode{id: id, value: value, bytes: bytes}
	s.entries[id] = n
	s.bytes += bytes
	n.next = s.head
	if s.head != nil {
		s.head.prev = n
	}
	s.head = n
	if s.tail == nil {
		s.tail = n
	}
	for s.bytes > s.capBytes && s.tail != nil && s.tail != n {
		evict := s.tail
		s.unlink(evict)
		delete(s.entries, evict.id)
		s.bytes -= evict.bytes
		s.evicted++
	}
}

// Delete drops the entry for id, if cached — the invalidation hook for
// writers that supersede a record. Backends never reuse a PageID, so a
// superseded record's cache entry can only waste budget (it is
// unreachable through any live pointer); deleting it keeps the byte
// accounting honest under insert-heavy workloads.
func (c *DecodedCache) Delete(id PageID) {
	if c == nil {
		return
	}
	s := c.shardOf(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if n, ok := s.entries[id]; ok {
		s.unlink(n)
		delete(s.entries, id)
		s.bytes -= n.bytes
	}
}

// FitsBudget reports whether a value of the given approximate size can be
// cached at all (Put refuses values larger than one shard's budget).
// Readers use it to pick a decode strategy before paying for a full
// decode that could never be cached.
func (c *DecodedCache) FitsBudget(bytes int64) bool {
	if c == nil {
		return false
	}
	return bytes <= c.shards[0].capBytes
}

// Stats sums the shard counters.
func (c *DecodedCache) Stats() DecodedCacheStats {
	var out DecodedCacheStats
	if c == nil {
		return out
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		out.Hits += s.hits
		out.Misses += s.misses
		out.Evictions += s.evicted
		out.Entries += len(s.entries)
		out.Bytes += s.bytes
		out.CapBytes += s.capBytes
		s.mu.Unlock()
	}
	return out
}

func (s *decodedShard) moveToFront(n *decodedNode) {
	if s.head == n {
		return
	}
	s.unlink(n)
	n.next = s.head
	if s.head != nil {
		s.head.prev = n
	}
	s.head = n
	if s.tail == nil {
		s.tail = n
	}
}

func (s *decodedShard) unlink(n *decodedNode) {
	if n.prev != nil {
		n.prev.next = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	}
	if s.head == n {
		s.head = n.next
	}
	if s.tail == n {
		s.tail = n.prev
	}
	n.prev, n.next = nil, nil
}
