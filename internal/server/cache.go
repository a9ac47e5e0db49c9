package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sync"

	maxbrstknn "repro"
)

// lruCache is a singleflight LRU keyed by strings: concurrent requests
// for the same missing key share one build (the first request builds,
// the rest wait on it), and build errors are never cached. Every get
// holds its entry until the caller releases it; a value that leaves the
// cache — evicted, or dropped as older than an epoch — is passed to leave
// once no get holds it, so leave may free what the value owns. The
// serving layer instantiates it once per server, for its cohort cache.
type lruCache[T any] struct {
	mu       sync.Mutex
	capacity int
	leave    func(T) // called under mu, so it must neither block nor use the cache
	entries  map[string]*list.Element
	order    *list.List // front = most recently used; values are *cacheEntry
	hits     int64
	misses   int64
}

type cacheEntry[T any] struct {
	key   string
	epoch uint64
	ready chan struct{} // closed when val/err are set
	done  bool          // set under the cache mutex once the build finished
	held  int           // gets not yet released (under the cache mutex)
	gone  bool          // out of the cache (under the cache mutex)
	val   T
	err   error
}

func newLRUCache[T any](capacity int, leave func(T)) *lruCache[T] {
	return &lruCache[T]{
		capacity: capacity,
		leave:    leave,
		entries:  make(map[string]*list.Element),
		order:    list.New(),
	}
}

// sessionKey digests an index epoch, a user set and k into a fixed-size
// key: the canonical encoding — exact coordinate bit patterns,
// length-prefixed keywords, length-prefixed user records — is injective,
// and hashing it keeps keys O(1) no matter how large the cohort (a
// near-body-limit request must not pin megabytes of key string in the
// LRU). The epoch is part of the key because a Session pins the snapshot
// it was built on: after a mutation publishes a new epoch, cached
// cohorts for older epochs must not serve new requests, and the mutation
// drops them (dropBefore).
func sessionKey(epoch uint64, users []maxbrstknn.UserSpec, k int) string {
	h := sha256.New()
	var buf [8]byte
	writeInt := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	writeFloat := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	writeInt(int(epoch))
	writeInt(k)
	writeInt(len(users))
	for _, u := range users {
		writeFloat(u.X)
		writeFloat(u.Y)
		writeInt(len(u.Keywords))
		for _, kw := range u.Keywords {
			writeInt(len(kw))
			h.Write([]byte(kw))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// get returns the cached value for key, built for epoch, building it
// with build on a miss, and a release the caller calls when done with
// the value (not on error). Build errors are not cached: the failed
// entry is removed so the next request retries.
func (c *lruCache[T]) get(key string, epoch uint64, build func() (T, error)) (T, func(), error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.hits++
		c.order.MoveToFront(el)
		e := el.Value.(*cacheEntry[T])
		e.held++
		c.mu.Unlock()
		<-e.ready
		return e.val, func() { c.release(e) }, e.err
	}
	c.misses++
	e := &cacheEntry[T]{key: key, epoch: epoch, ready: make(chan struct{}), held: 1}
	el := c.order.PushFront(e)
	c.entries[key] = el
	c.evictLocked(0)
	c.mu.Unlock()

	e.val, e.err = build()
	c.mu.Lock()
	e.done = true
	if e.err != nil {
		// Only remove our own entry (it may already have been evicted,
		// or even replaced after an eviction). Errors are not cached.
		if cur, ok := c.entries[key]; ok && cur == el {
			c.order.Remove(el)
			delete(c.entries, key)
		}
	} else {
		// The entry became evictable only now; settle any overshoot the
		// in-flight protection allowed.
		c.evictLocked(0)
	}
	c.mu.Unlock()
	close(e.ready)
	return e.val, func() { c.release(e) }, e.err
}

// release ends one get's hold on e, leaving its value if e is out of the
// cache and this was the last hold.
func (c *lruCache[T]) release(e *cacheEntry[T]) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.held--; e.held == 0 && e.gone {
		c.leave(e.val)
	}
}

// dropBefore removes every entry built for an epoch before epoch: no
// request asks for its key again.
func (c *lruCache[T]) dropBefore(epoch uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.evictLocked(epoch)
}

// evictLocked removes every entry built for an epoch before floor (no
// request asks for its key again, so its waiters cannot be split from a
// rebuild) and, least recently used first, built entries until the cache
// is within capacity. It never evicts an entry whose build is still in
// flight: that would detach waiters joined to its ready channel while a
// later request for the same key starts a duplicate build — the
// singleflight guarantee would silently break. The cache may therefore
// overshoot capacity while every entry is building; each build settles
// the debt when it finishes. A removed entry's value leaves now if no get
// holds it, else at the last release.
func (c *lruCache[T]) evictLocked(floor uint64) {
	over := func() bool { return c.capacity > 0 && c.order.Len() > c.capacity }
	for el := c.order.Back(); el != nil && (floor > 0 || over()); {
		prev := el.Prev()
		if e := el.Value.(*cacheEntry[T]); e.epoch < floor || (over() && e.done) {
			c.order.Remove(el)
			delete(c.entries, e.key)
			if e.gone = true; e.held == 0 {
				c.leave(e.val)
			}
		}
		el = prev
	}
}

// stats returns the current size and cumulative hit/miss counts.
func (c *lruCache[T]) stats() (size int, hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len(), c.hits, c.misses
}
