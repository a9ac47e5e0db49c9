package irtree

import (
	"slices"
	"sync"

	"repro/internal/container"
	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/invfile"
	"repro/internal/textrel"
)

// Result is one ranked object.
type Result struct {
	ObjID int32
	Score float64
}

// searchCand is one queue entry of TopK: a node or an object.
type searchCand struct {
	ref    int32
	isNode bool
}

// searchScratch is TopK's queue, result heap and sum buffers, pooled
// across calls so a warm read allocates only the results it returns.
type searchScratch struct {
	pq   *container.Heap[searchCand]
	tk   *container.StableTopK[Result]
	sums invfile.SumScratch
}

var searchPool = sync.Pool{New: func() any {
	return &searchScratch{pq: container.NewMaxHeap[searchCand](), tk: container.NewStableTopK[Result](1)}
}}

// TopK computes the k most spatial-textually relevant objects for a single
// user with the best-first IR-tree search of Cong et al. [3] — the
// per-user computation the baseline of Section 4 performs for every user.
// It returns the results in descending score order, ties by ascending
// object id, together with RSk(u), the score of the k-th ranked object
// (−MaxFloat64 when fewer than k objects exist). The queue is keyed by the
// entries' upper bounds; a popped object is scored exactly with
// Scorer.STS, so the list is the exact top-k of Equation 1 whatever order
// the traversal reaches tied objects in.
//
// Every node visit and inverted-file load is charged to the tree's
// IOCounter, so baselines that call TopK per user accumulate the
// duplicated I/O the joint algorithm of Section 5 is designed to avoid.
func (t *Tree) TopK(scorer *textrel.Scorer, u *dataset.User, k int) ([]Result, float64, error) {
	sc := searchPool.Get().(*searchScratch)
	defer searchPool.Put(sc)
	tk, pq := sc.tk, sc.pq
	tk.Reset(k)
	pq.Clear()
	if t.rootID < 0 {
		return nil, tk.Threshold(), nil
	}
	pq.Push(searchCand{t.rootID, true}, 1) // any key ≥ every true score works for the root

	uRect, terms, norm := geo.RectFromPoint(u.Loc), u.Doc.Terms(), scorer.Norm(u.Doc)
	for pq.Len() > 0 {
		c, key := pq.Pop()
		if tk.Full() && key < tk.Threshold() {
			break // best-first: nothing better or tied remains
		}
		if !c.isNode {
			o := &t.ds.Objects[c.ref]
			score := scorer.STS(o.Loc, o.Doc, u.Loc, u.Doc, norm)
			tk.Offer(Result{ObjID: c.ref, Score: score}, score, int64(c.ref))
			continue
		}
		node, err := t.ReadNode(c.ref)
		if err != nil {
			return nil, 0, err
		}
		sums, _, err := t.ReadInvSums(node, terms, nil, &sc.sums)
		if err != nil {
			return nil, 0, err
		}
		for i, e := range node.Entries {
			ss := scorer.SSMax(e.Rect, uRect)
			score := scorer.Combine(ss, sums[i], norm)
			if tk.Full() && score < tk.Threshold() {
				continue
			}
			pq.Push(searchCand{e.Child, !node.Leaf}, score)
		}
	}

	results := tk.PopAscending()
	slices.Reverse(results)
	// Threshold was consumed by PopAscending; recompute from results.
	rsk := -1.7976931348623157e308
	if len(results) == k {
		rsk = results[len(results)-1].Score
	}
	return results, rsk, nil
}
