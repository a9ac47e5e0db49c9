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
// the rest wait on it), and build errors are never cached. The serving
// layer instantiates it once per server, for its cohort cache.
type lruCache[T any] struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*list.Element
	order    *list.List // front = most recently used; values are *cacheEntry
	hits     int64
	misses   int64
}

type cacheEntry[T any] struct {
	key   string
	ready chan struct{} // closed when val/err are set
	done  bool          // set under the cache mutex once the build finished
	val   T
	err   error
}

func newLRUCache[T any](capacity int) *lruCache[T] {
	return &lruCache[T]{
		capacity: capacity,
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
// cohorts for older epochs must not serve new requests (they age out of
// the LRU instead).
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

// get returns the cached value for key, building it with build on a
// miss. Build errors are not cached: the failed entry is removed so the
// next request retries.
func (c *lruCache[T]) get(key string, build func() (T, error)) (T, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.hits++
		c.order.MoveToFront(el)
		e := el.Value.(*cacheEntry[T])
		c.mu.Unlock()
		<-e.ready
		return e.val, e.err
	}
	c.misses++
	e := &cacheEntry[T]{key: key, ready: make(chan struct{})}
	el := c.order.PushFront(e)
	c.entries[key] = el
	c.evictLocked()
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
		c.evictLocked()
	}
	c.mu.Unlock()
	close(e.ready)
	return e.val, e.err
}

// evictLocked trims the LRU to capacity, never evicting an entry whose
// build is still in flight: evicting one would detach waiters joined to
// its ready channel while a later request for the same key starts a
// duplicate build — the singleflight guarantee would silently break. The
// cache may therefore overshoot capacity while every entry is building;
// each build settles the debt when it finishes.
func (c *lruCache[T]) evictLocked() {
	if c.capacity <= 0 {
		return
	}
	for el := c.order.Back(); el != nil && c.order.Len() > c.capacity; {
		prev := el.Prev()
		if e := el.Value.(*cacheEntry[T]); e.done {
			c.order.Remove(el)
			delete(c.entries, e.key)
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
