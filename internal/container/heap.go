// Package container provides the generic in-memory data structures shared by
// the index and query-processing packages: priority queues keyed by float
// scores (the PQ, LO, RO and Hu queues of Algorithms 1–2), bounded top-k
// holders (TopK, and StableTopK with its deterministic tie order), and
// k-subset combination enumeration (the exact keyword selection of
// Algorithm 4), and the two reductions of a scan's candidates to its
// answer (FirstMax, TopByCount).
package container

import "sort"

// Heap is a binary heap of items with float64 priorities. A max-heap pops
// the highest priority first; a min-heap the lowest. The zero value is not
// usable; construct with NewMaxHeap or NewMinHeap.
type Heap[T any] struct {
	items []heapEntry[T]
	max   bool
}

type heapEntry[T any] struct {
	value T
	key   float64
}

// NewMaxHeap returns an empty heap that pops the largest key first.
func NewMaxHeap[T any]() *Heap[T] { return &Heap[T]{max: true} }

// NewMinHeap returns an empty heap that pops the smallest key first.
func NewMinHeap[T any]() *Heap[T] { return &Heap[T]{max: false} }

// Len returns the number of items in the heap.
func (h *Heap[T]) Len() int { return len(h.items) }

// Push adds value with the given priority key.
func (h *Heap[T]) Push(value T, key float64) {
	h.items = append(h.items, heapEntry[T]{value, key})
	h.up(len(h.items) - 1)
}

// Pop removes and returns the item with the best key (largest for a
// max-heap, smallest for a min-heap) and that key. It panics on an empty
// heap; check Len first.
func (h *Heap[T]) Pop() (T, float64) {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	var zero heapEntry[T]
	h.items[last] = zero
	h.items = h.items[:last]
	if len(h.items) > 0 {
		h.down(0)
	}
	return top.value, top.key
}

// Peek returns the best item and key without removing it. It panics on an
// empty heap.
func (h *Heap[T]) Peek() (T, float64) {
	return h.items[0].value, h.items[0].key
}

// Clear removes all items, retaining the allocated capacity. Cleared
// slots are zeroed so reused heaps do not pin old values' referents.
func (h *Heap[T]) Clear() {
	clear(h.items)
	h.items = h.items[:0]
}

// Items returns the values currently in the heap in unspecified order.
func (h *Heap[T]) Items() []T {
	out := make([]T, len(h.items))
	for i, e := range h.items {
		out[i] = e.value
	}
	return out
}

// before reports whether key a should pop before key b.
func (h *Heap[T]) before(a, b float64) bool {
	if h.max {
		return a > b
	}
	return a < b
}

func (h *Heap[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.before(h.items[i].key, h.items[parent].key) {
			return
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *Heap[T]) down(i int) {
	n := len(h.items)
	for {
		left, right := 2*i+1, 2*i+2
		best := i
		if left < n && h.before(h.items[left].key, h.items[best].key) {
			best = left
		}
		if right < n && h.before(h.items[right].key, h.items[best].key) {
			best = right
		}
		if best == i {
			return
		}
		h.items[i], h.items[best] = h.items[best], h.items[i]
		i = best
	}
}

// TopK maintains the k best-scoring items seen so far, where "best" means
// highest score. It is the structure behind the LO queue of Algorithm 1 and
// the per-user Hu queues of Algorithm 2: a bounded min-heap whose root is
// the k-th best score (the RSk threshold).
type TopK[T any] struct {
	k    int
	heap *Heap[T]
}

// NewTopK returns a TopK retaining the k highest-scored items. k must be
// positive.
func NewTopK[T any](k int) *TopK[T] {
	if k <= 0 {
		panic("container: TopK requires k > 0")
	}
	return &TopK[T]{k: k, heap: NewMinHeap[T]()}
}

// Len returns the number of retained items (at most k).
func (t *TopK[T]) Len() int { return t.heap.Len() }

// Full reports whether k items are retained.
func (t *TopK[T]) Full() bool { return t.heap.Len() >= t.k }

// Threshold returns the k-th best score seen so far, or -Inf when fewer
// than k items have been offered. An unseen item must score at least this
// value to enter the top-k.
func (t *TopK[T]) Threshold() float64 {
	if !t.Full() {
		return negInf
	}
	_, key := t.heap.Peek()
	return key
}

// Offer considers value with the given score, keeping it only if it is
// among the k best. It returns the evicted item, its score, and true when
// a previously retained item was displaced.
func (t *TopK[T]) Offer(value T, score float64) (evicted T, evictedScore float64, wasEvicted bool) {
	if !t.Full() {
		t.heap.Push(value, score)
		var zero T
		return zero, 0, false
	}
	if _, worst := t.heap.Peek(); score <= worst {
		// Not better than the current k-th: when equal we keep the incumbent.
		return value, score, false
	}
	evicted, evictedScore = t.heap.Pop()
	t.heap.Push(value, score)
	return evicted, evictedScore, true
}

// Items returns the retained items in unspecified order.
func (t *TopK[T]) Items() []T { return t.heap.Items() }

// Reset empties the TopK and re-arms it for the k highest-scored items,
// retaining the allocated capacity — the reuse path of per-worker query
// scratch. k must be positive.
func (t *TopK[T]) Reset(k int) {
	if k <= 0 {
		panic("container: TopK requires k > 0")
	}
	t.k = k
	t.heap.Clear()
}

// PopAscending drains the structure, returning items from worst to best
// score. The TopK is empty afterwards.
func (t *TopK[T]) PopAscending() []T {
	out := make([]T, 0, t.heap.Len())
	for t.heap.Len() > 0 {
		v, _ := t.heap.Pop()
		out = append(out, v)
	}
	return out
}

// FirstMax is the reduction of a scan to its answer, over any candidate
// type C holding a result R: the result of the first candidate, in order,
// whose count strictly beats every earlier one's, or none when no count is
// positive. core.Best and the coordinator's replay of shard candidates
// are this one function.
func FirstMax[C, R any](cands []C, result func(C) R, count func(R) int, none R) R {
	best, n := none, 0
	for _, c := range cands {
		if r := result(c); count(r) > n {
			best, n = r, count(r)
		}
	}
	return best
}

// TopByCount is the top-l reduction of a scan, as FirstMax is the top-1:
// the results are offered in order to a TopK of l by count — eviction
// among equal counts depends on that order — and the survivors returned
// by count descending, then loc ascending. l must be positive.
func TopByCount[C, R any](cands []C, l int, result func(C) R, count, loc func(R) int) []R {
	best := NewTopK[R](l)
	for _, c := range cands {
		r := result(c)
		best.Offer(r, float64(count(r)))
	}
	out := best.PopAscending()
	sort.Slice(out, func(i, j int) bool {
		if ci, cj := count(out[i]), count(out[j]); ci != cj {
			return ci > cj
		}
		return loc(out[i]) < loc(out[j])
	})
	return out
}

const negInf = -1.7976931348623157e308 // -MaxFloat64, avoids importing math
