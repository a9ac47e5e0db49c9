package storage

import "sync"

// BufferPool is an LRU cache of records in front of a Backend. Over the
// in-memory pager it keeps cold-query accounting honest (revisiting a node
// within one query is not charged twice); over the disk pager it is the
// buffer pool proper, keeping hot tree nodes and posting lists out of the
// read path entirely.
//
// The pool is safe for concurrent readers: the parallel query engine runs
// several traversals over one tree, and every one of them funnels through
// the same recency list.
type BufferPool struct {
	mu       sync.Mutex
	backend  Backend
	capacity int
	entries  map[PageID]*lruNode
	head     *lruNode // most recently used
	tail     *lruNode // least recently used
	hits     int64
	misses   int64
}

type lruNode struct {
	id         PageID
	data       []byte
	prev, next *lruNode
}

// NewBufferPool returns a pool over backend caching up to capacity
// records. A non-positive capacity disables caching (every read is a
// miss).
func NewBufferPool(backend Backend, capacity int) *BufferPool {
	return &BufferPool{
		backend:  backend,
		capacity: capacity,
		entries:  make(map[PageID]*lruNode),
	}
}

// Read returns the record at id, serving from cache when possible. The
// second result reports whether the read was a cache hit.
//
// Aliasing contract: the returned slice is shared — on a hit it is the
// cache's own copy, handed concurrently to every other reader of the same
// record. Callers must treat the bytes as immutable, exactly as they must
// treat values obtained from a DecodedCache hit. Records themselves are
// immutable once written (the Backend contract), so sharing is safe for
// readers; writers never reuse a PageID.
func (b *BufferPool) Read(id PageID) ([]byte, bool, error) {
	b.mu.Lock()
	if n, ok := b.entries[id]; ok {
		b.hits++
		b.moveToFront(n)
		data := n.data
		b.mu.Unlock()
		return data, true, nil
	}
	b.misses++
	b.mu.Unlock()

	// Backend records are immutable while queries run (inserts are a
	// single-writer operation), so the record copy happens outside the
	// lock — concurrent misses must not serialize on it. Two goroutines
	// racing on the same id both perform (and are charged for) a real
	// read; only one result is cached.
	data, err := b.backend.ReadRecord(id)
	if err != nil {
		return nil, false, err
	}
	if b.capacity > 0 {
		b.mu.Lock()
		if _, ok := b.entries[id]; !ok {
			b.insert(id, data)
		}
		b.mu.Unlock()
	}
	return data, false, nil
}

// Stats returns cumulative hit and miss counts.
func (b *BufferPool) Stats() (hits, misses int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.hits, b.misses
}

func (b *BufferPool) insert(id PageID, data []byte) {
	n := &lruNode{id: id, data: data}
	b.entries[id] = n
	n.next = b.head
	if b.head != nil {
		b.head.prev = n
	}
	b.head = n
	if b.tail == nil {
		b.tail = n
	}
	if len(b.entries) > b.capacity {
		evict := b.tail
		b.unlink(evict)
		delete(b.entries, evict.id)
	}
}

func (b *BufferPool) moveToFront(n *lruNode) {
	if b.head == n {
		return
	}
	b.unlink(n)
	n.prev = nil
	n.next = b.head
	if b.head != nil {
		b.head.prev = n
	}
	b.head = n
	if b.tail == nil {
		b.tail = n
	}
}

func (b *BufferPool) unlink(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	}
	if b.head == n {
		b.head = n.next
	}
	if b.tail == n {
		b.tail = n.prev
	}
	n.prev, n.next = nil, nil
}
