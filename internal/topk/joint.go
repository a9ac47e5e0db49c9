package topk

import (
	"math"

	"repro/internal/container"
	"repro/internal/dataset"
	"repro/internal/invfile"
	"repro/internal/irtree"
	"repro/internal/textrel"
)

// BoundedObject is an object retrieved by the joint traversal together
// with its lower and upper bound scores w.r.t. the super-user — the
// entries of the LO and RO queues of Algorithm 1.
type BoundedObject struct {
	ObjID  int32
	LB, UB float64
	// SMax and RawText decompose UB for the parallel refinement's
	// per-user pruning: UB = α·SMax + (1−α)·RawText/MinNorm(group).
	// SMax is the spatial bound (SSMax vs the group MBR); RawText the
	// unnormalized maximum text sum over the group's keyword union.
	SMax, RawText float64
}

// TraversalResult is the outcome of Algorithm 1: every object that can be
// a top-k object of at least one user in the group, with RSkSuper — the
// k-th best lower bound (RSk(us)).
type TraversalResult struct {
	// LO holds the k objects with the best lower bounds.
	LO []BoundedObject
	// RO holds the remaining candidates, sorted by descending upper bound.
	RO []BoundedObject
	// RSkSuper is RSk(us); −MaxFloat64 when fewer than k objects exist.
	RSkSuper float64
	// Visited counts tree nodes expanded (ReadNode calls) — the traversal
	// work metric a coordinator's wave counters report, where a forwarded
	// bound shows up as pruning deeper.
	Visited int
}

// Candidates returns LO followed by RO.
func (r *TraversalResult) Candidates() []BoundedObject {
	out := make([]BoundedObject, 0, len(r.LO)+len(r.RO))
	out = append(out, r.LO...)
	out = append(out, r.RO...)
	return out
}

// travCand is one priority-queue entry of the Algorithm 1 traversal.
type travCand struct {
	ref        int32
	isNode     bool
	ub         float64
	smax, braw float64 // UB components (see BoundedObject)
}

// TraverseScratch holds the reusable state of one traversal — the
// priority queues and the per-node sum buffers — so a worker running many
// group traversals allocates them once, and JointTopK keeps them across
// calls in a pool. The zero value is ready to use; a scratch must not be
// shared between concurrent traversals.
type TraverseScratch struct {
	sums invfile.SumScratch
	pq   *container.Heap[travCand]
	lo   *container.TopK[BoundedObject]
	ro   *container.Heap[BoundedObject]
}

// queues returns the scratch's three queues, emptied and re-armed for k.
func (sc *TraverseScratch) queues(k int) (pq *container.Heap[travCand], lo *container.TopK[BoundedObject], ro *container.Heap[BoundedObject]) {
	if sc.pq == nil {
		sc.pq = container.NewMaxHeap[travCand]()
		sc.lo = container.NewTopK[BoundedObject](k)
		sc.ro = container.NewMaxHeap[BoundedObject]()
	} else {
		sc.pq.Clear()
		sc.lo.Reset(k)
		sc.ro.Clear()
	}
	return sc.pq, sc.lo, sc.ro
}

// Traverse implements Algorithm 1: a single best-first MIR-tree traversal
// for the super-user that visits each node at most once, pruning every
// subtree whose upper bound cannot reach RSk(us). tree must be built over
// the dataset the users were generated against. The queues and per-node
// sum buffers live in sc and are reused across calls, leaving only the
// returned result's own slices to allocate.
//
// floor is an externally supplied score floor: every pruning test runs
// against max(RSk(us), floor) instead of RSk(us) alone. −MaxFloat64 is the
// paper's unseeded traversal (all bounds are finite, so a −MaxFloat64
// threshold never fires before LO fills). A coordinator that already knows
// a global lower bound — the k-th best score some other shard established
// — passes it as the floor so this traversal prunes subtrees and objects
// that bound proves can never enter any group user's global top-k: for
// every group user u, floor ≤ RSk_global(u), and an object with group UB
// below the floor scores below it for every user. Lossless for the merged
// answer by construction.
//
//maxbr:hotpath
func Traverse(tree *irtree.Tree, scorer *textrel.Scorer, su SuperUser, k int, floor float64, sc *TraverseScratch) (*TraversalResult, error) {
	//maxbr:ignore hotpathalloc the result object is the one deliberate allocation per traversal (documented above)
	res := &TraversalResult{RSkSuper: -math.MaxFloat64}
	if tree.RootID() < 0 || su.NumUsers == 0 {
		return res, nil
	}

	// thr is the live pruning threshold: max(res.RSkSuper, floor).
	thr := floor

	// PQ is keyed by the lower bound (descending), per Section 5.4: objects
	// with the best lower bounds surface early, which tightens RSk(us).
	pq, lo, roHeap := sc.queues(k)
	pq.Push(travCand{ref: tree.RootID(), isNode: true, ub: math.MaxFloat64}, math.MaxFloat64)

	for pq.Len() > 0 {
		c, lb := pq.Pop()
		if !c.isNode {
			obj := BoundedObject{ObjID: c.ref, LB: lb, UB: c.ub, SMax: c.smax, RawText: c.braw}
			if obj.UB < thr {
				continue // cannot be a top-k object of any user
			}
			// Once LO is full, the object it turns away — the one it
			// evicts, or obj itself — goes to RO if it can still qualify.
			wasFull := lo.Full()
			evicted, _, _ := lo.Offer(obj, obj.LB)
			if lo.Full() {
				res.RSkSuper = lo.Threshold()
				thr = max(thr, res.RSkSuper)
			}
			if wasFull && evicted.UB >= thr {
				roHeap.Push(evicted, evicted.UB)
			}
			continue
		}

		// Node: prune unless it may contain a top-k object of some user.
		if c.ub < thr {
			continue
		}
		res.Visited++
		node, err := tree.ReadNode(c.ref)
		if err != nil {
			return nil, err
		}
		// Fused, term-filtered decode: the node stores postings for its
		// whole subtree vocabulary, but only the group's union and
		// intersection terms contribute to the bounds. The sums land in
		// the scratch buffers — no per-node allocation.
		maxSums, minSums, err := tree.ReadInvSums(node, su.Uni, su.Int, &sc.sums)
		if err != nil {
			return nil, err
		}
		for i, e := range node.Entries {
			smax := scorer.SSMax(e.Rect, su.MBR)
			ub := scorer.Combine(smax, maxSums[i], su.MinNorm)
			if ub < thr {
				continue
			}
			entryLB := scorer.Combine(scorer.SSMin(e.Rect, su.MBR), minSums[i], su.MaxNorm)
			pq.Push(travCand{ref: e.Child, isNode: !node.Leaf, ub: ub, smax: smax, braw: maxSums[i]}, entryLB)
		}
	}

	res.LO = lo.PopAscending()
	if roHeap.Len() > 0 {
		//maxbr:ignore hotpathalloc result slice, sized once by the traversal outcome; allocation is per query, not per node
		res.RO = make([]BoundedObject, roHeap.Len())
		for i := range res.RO {
			res.RO[i], _ = roHeap.Pop()
		}
	}
	return res, nil
}

// UserTopK is the per-user outcome of the joint processing.
type UserTopK struct {
	// Results holds the top-k objects in descending score order.
	Results []irtree.Result
	// RSk is the score of the k-th ranked object (−MaxFloat64 when fewer
	// than k objects exist) — the threshold every MaxBRSTkNN candidate
	// must beat for this user.
	RSk float64
	// Scored counts the candidates this refinement actually evaluated
	// (exact STS computations). Tree-node visits measure traversal work;
	// this measures refinement work — the part a seeded threshold
	// truncates, since a higher starting RSk breaks the descending-UB
	// candidate scan earlier.
	Scored int
}

// JointResult is what the joint processing yields: every user's top-k
// plus the work counters a coordinator's /stats reports.
type JointResult struct {
	PerUser []UserTopK
	// Visited totals the tree nodes expanded across all group traversals
	// (see TraversalResult.Visited).
	Visited int
	// Refined totals the candidates scored across all per-user refinements
	// (see UserTopK.Scored).
	Refined int
}

// BaselineTopK computes each user's top-k independently with the IR-tree
// search of Section 4 — the comparison point for every figure's "B" series
// and the reference the joint pipeline's tests compare against.
func BaselineTopK(tree *irtree.Tree, scorer *textrel.Scorer, users []dataset.User, k int) ([]UserTopK, error) {
	out := make([]UserTopK, len(users))
	for ui := range users {
		results, rsk, err := tree.TopK(scorer, &users[ui], k)
		if err != nil {
			return nil, err
		}
		out[ui] = UserTopK{Results: results, RSk: rsk}
	}
	return out, nil
}
