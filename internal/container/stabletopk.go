package container

// StableTopK retains the k best items under the total order
// (score descending, tie ascending): on equal scores the item with the
// smaller tie key wins. Because the order is total, the retained set
// depends only on the multiset of offers, never on their arrival order —
// the determinism the parallel query engine's equivalence guarantee rests
// on (ties between objects are broken by object ID, so grouped and
// sequential traversals keep identical top-k sets).
type StableTopK[T any] struct {
	k     int
	items []stableEntry[T] // min-heap: root is the worst retained item
}

type stableEntry[T any] struct {
	value T
	score float64
	tie   int64
}

// NewStableTopK returns a StableTopK retaining the k best items. k must be
// positive.
func NewStableTopK[T any](k int) *StableTopK[T] {
	if k <= 0 {
		panic("container: StableTopK requires k > 0")
	}
	return &StableTopK[T]{k: k}
}

// worse reports whether a ranks strictly worse than b.
func worse[T any](a, b stableEntry[T]) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	return a.tie > b.tie
}

// Reset empties the StableTopK and re-arms it for the k best items,
// retaining the allocated capacity — the reuse path of per-worker query
// scratch. k must be positive.
func (t *StableTopK[T]) Reset(k int) {
	if k <= 0 {
		panic("container: StableTopK requires k > 0")
	}
	t.k = k
	clear(t.items)
	t.items = t.items[:0]
}

// Full reports whether k items are retained.
func (t *StableTopK[T]) Full() bool { return len(t.items) >= t.k }

// Threshold returns the k-th best score seen so far, or -Inf when fewer
// than k items have been offered.
func (t *StableTopK[T]) Threshold() float64 {
	if !t.Full() {
		return negInf
	}
	return t.items[0].score
}

// Offer considers value under the total order, retaining it only if it is
// among the k best seen so far.
func (t *StableTopK[T]) Offer(value T, score float64, tie int64) {
	e := stableEntry[T]{value: value, score: score, tie: tie}
	if !t.Full() {
		t.items = append(t.items, e)
		t.up(len(t.items) - 1)
		return
	}
	if !worse(t.items[0], e) {
		return // not better than the current worst retained item
	}
	t.items[0] = e
	t.down(0)
}

// PopAscending drains the structure, returning items from worst to best
// under the total order. The StableTopK is empty afterwards.
func (t *StableTopK[T]) PopAscending() []T {
	out := make([]T, 0, len(t.items))
	for len(t.items) > 0 {
		out = append(out, t.items[0].value)
		last := len(t.items) - 1
		t.items[0] = t.items[last]
		var zero stableEntry[T]
		t.items[last] = zero
		t.items = t.items[:last]
		if len(t.items) > 0 {
			t.down(0)
		}
	}
	return out
}

func (t *StableTopK[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !worse(t.items[i], t.items[parent]) {
			return
		}
		t.items[i], t.items[parent] = t.items[parent], t.items[i]
		i = parent
	}
}

func (t *StableTopK[T]) down(i int) {
	n := len(t.items)
	for {
		worst := i
		if l := 2*i + 1; l < n && worse(t.items[l], t.items[worst]) {
			worst = l
		}
		if r := 2*i + 2; r < n && worse(t.items[r], t.items[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		t.items[i], t.items[worst] = t.items[worst], t.items[i]
		i = worst
	}
}
