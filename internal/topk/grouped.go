package topk

import (
	"math"
	"slices"
	"sync"

	"repro/internal/container"
	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/irtree"
	"repro/internal/parallel"
	"repro/internal/textrel"
)

// PartitionUsers splits the indexes 0..len(users)-1 into up to `groups`
// spatially coherent groups with a sort-tile pass: users are sorted by X,
// cut into vertical slabs, and each slab is sorted by Y and cut into
// tiles. Tight group MBRs are the point — each group's super-user prunes
// far more of the object index than the loose all-users super-user of
// Section 5.2, so grouping speeds the joint phase up even before any
// concurrency is applied. All ordering ties fall back to the user index,
// keeping the partition deterministic. It is geo.PartitionPoints applied
// to the user locations — the same primitive the shard planner uses, so
// shard boundaries and traversal groups tile space the same way.
func PartitionUsers(users []dataset.User, groups int) [][]int {
	pts := make([]geo.Point, len(users))
	for i := range users {
		pts[i] = users[i].Loc
	}
	return geo.PartitionPoints(pts, groups)
}

// RefineAux is the pruning index RefineUser consults over a traversal's
// RO list: running suffix maxima of the two UB components. For any user u
// of the traversal's group and scan position i, every candidate at or
// beyond i scores at most
//
//	α·sufS[i] + (1−α)·sufR[i]/Norm(u)
//
// — a user-specific cutoff far tighter than the group-normalized UB the
// paper's Algorithm 2 breaks on, because it swaps the group's MinNorm for
// the user's own normalizer. It depends only on the TraversalResult, so
// callers refining many users against one traversal build it once.
type RefineAux struct {
	sufS, sufR []float64
}

// NewRefineAux builds the pruning index over tr's RO list.
func NewRefineAux(tr *TraversalResult) *RefineAux {
	n := len(tr.RO)
	aux := &RefineAux{sufS: make([]float64, n), sufR: make([]float64, n)}
	maxS, maxR := 0.0, 0.0
	for i := n - 1; i >= 0; i-- {
		if tr.RO[i].SMax > maxS {
			maxS = tr.RO[i].SMax
		}
		if tr.RO[i].RawText > maxR {
			maxR = tr.RO[i].RawText
		}
		aux.sufS[i], aux.sufR[i] = maxS, maxR
	}
	return aux
}

// RefineScratch holds the reusable per-user refinement state — the
// bounded top-k heap — so one worker refining many users allocates it
// once. The zero value is ready to use; a scratch must not be shared
// between concurrent refinements.
type RefineScratch struct {
	hu *container.StableTopK[irtree.Result]
}

// heap returns the scratch's top-k heap, emptied and re-armed for k.
func (sc *RefineScratch) heap(k int) *container.StableTopK[irtree.Result] {
	if sc.hu == nil {
		sc.hu = container.NewStableTopK[irtree.Result](k)
	} else {
		sc.hu.Reset(k)
	}
	return sc.hu
}

// RefineUser computes one user's exact top-k from a traversal's candidates
// — the per-user body of Algorithm 2. tr must hold LO (any order) and RO
// sorted by descending upper bound, as Traverse produces them. Ties on the
// k-th score are broken by ascending object ID, making the retained set a
// function of the candidate multiset alone: grouped and single-group
// traversals yield identical answers, the engine's equivalence guarantee.
// With a warm scratch the only allocation is the returned Results slice.
//
// A nil aux is the paper's scan, which breaks only on the group UB. A
// non-nil aux adds two provably lossless pruning rules enabled by the UB
// decomposition: a per-candidate skip (α·SMax + (1−α)·RawText/Norm(u) <
// RSk already proves the exact score cannot qualify) and a suffix-maxima
// early break (no remaining candidate can qualify). Both bounds dominate
// the user's exact STS whenever the user belongs to the traversal's group
// — their location lies in the group MBR and their keywords in the group
// union — so the result is byte-identical to the aux-less scan.
//
// seed is an externally supplied score floor: the refinement threshold
// runs at max(heap threshold, seed) throughout, and −MaxFloat64 is the
// unseeded scan. A coordinator merging per-shard top-k lists passes the
// k-th best score user u already holds from earlier shards; candidates
// below that seed are skipped because they can never enter u's merged
// top-k, while boundary ties survive (the qualifying test is s ≥
// threshold, and merged retention under the StableTopK order depends only
// on the candidate multiset at or above the global k-th score).
//
//maxbr:hotpath
func RefineUser(ds *dataset.Dataset, scorer *textrel.Scorer, u *dataset.User, norm float64, tr *TraversalResult, aux *RefineAux, k int, seed float64, sc *RefineScratch) UserTopK {
	hu := sc.heap(k)
	scored := len(tr.LO)
	for _, o := range tr.LO {
		obj := &ds.Objects[o.ObjID]
		s := scorer.STS(obj.Loc, obj.Doc, u.Loc, u.Doc, norm)
		hu.Offer(irtree.Result{ObjID: o.ObjID, Score: s}, s, int64(o.ObjID))
	}
	rsk := hu.Threshold()
	if seed > rsk {
		rsk = seed
	}
	for i := range tr.RO {
		o := &tr.RO[i]
		if o.UB < rsk {
			break // the paper's break: RO is descending in group UB
		}
		if aux != nil {
			if scorer.Combine(aux.sufS[i], aux.sufR[i], norm) < rsk {
				break // no remaining candidate can reach this user's top-k
			}
			if scorer.Combine(o.SMax, o.RawText, norm) < rsk {
				continue // this candidate provably cannot qualify
			}
		}
		obj := &ds.Objects[o.ObjID]
		scored++
		s := scorer.STS(obj.Loc, obj.Doc, u.Loc, u.Doc, norm)
		if s >= rsk {
			hu.Offer(irtree.Result{ObjID: o.ObjID, Score: s}, s, int64(o.ObjID))
			rsk = hu.Threshold()
			if seed > rsk {
				rsk = seed
			}
		}
	}
	// PopAscending yields worst→best under (score, then object ID);
	// reversing gives descending score with ascending-ID tie-breaks.
	results := hu.PopAscending()
	slices.Reverse(results)
	return UserTopK{Results: results, RSk: rsk, Scored: scored}
}

// traversePool and refinePool keep JointTopK's queues across calls: a
// cohort's grow to tens of thousands of candidates a request would drop.
var (
	traversePool = sync.Pool{New: func() any { return new(TraverseScratch) }}
	refinePool   = sync.Pool{New: func() any { return new(RefineScratch) }}
)

// JointTopK runs the full Section 5 pipeline: the user set is partitioned
// into `groups` spatial groups, each group's super-user is traversed once
// (Algorithm 1), and every user is refined against their group's
// candidates (Algorithm 2), both steps on a pool of up to `workers`
// goroutines. workers 1, groups 1 and nil seeds is the sequential paper
// pipeline: PartitionUsers returns the users in their own order for one
// group and the pool runs inline for one worker. The queues of both steps
// come from pools that outlive the call.
//
// Per-user results are identical for every workers/groups choice: each
// group traversal yields a candidate superset of its users' top-k objects,
// RefineUser's pruning rules discard only candidates whose bounds prove
// they cannot qualify, and ties are broken by object ID, so refinement
// depends only on scores.
//
// seeds, when non-nil, holds per user a lower bound on their global k-th
// best score that a coordinator established from other shards' answers.
// Each group traversal then runs with floor = min over the group's seeds
// (an object below every group member's seed can never qualify for any of
// them), and each refinement runs at the user's own seed. All-zero seeds
// never fire on the non-negative score domain, so results match nil seeds
// exactly; with real seeds the per-user lists restricted to scores ≥ the
// seed are preserved, which is all a merged global top-k consumes.
func JointTopK(tree *irtree.Tree, scorer *textrel.Scorer, users []dataset.User, k, workers, groups int, seeds []float64) (*JointResult, error) {
	parts := PartitionUsers(users, groups)
	norms := scorer.UserNorms(users)
	seedOf := func(ui int) float64 {
		if seeds == nil {
			return -math.MaxFloat64
		}
		return seeds[ui]
	}

	travs := make([]*TraversalResult, len(parts))
	auxes := make([]*RefineAux, len(parts))
	errs := make([]error, len(parts))
	groupOf := make([]int, len(users))
	parallel.ForNWorkers(len(parts), workers, func(_, g int) {
		sc := traversePool.Get().(*TraverseScratch)
		defer traversePool.Put(sc)
		gu := make([]dataset.User, len(parts[g]))
		floor := math.MaxFloat64
		for i, ui := range parts[g] {
			gu[i] = users[ui]
			groupOf[ui] = g
			floor = math.Min(floor, seedOf(ui))
		}
		travs[g], errs[g] = Traverse(tree, scorer, BuildSuperUser(gu, scorer), k, floor, sc)
		if errs[g] == nil {
			auxes[g] = NewRefineAux(travs[g])
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	res := &JointResult{PerUser: make([]UserTopK, len(users))}
	ds := tree.Dataset()
	parallel.ForNWorkers(len(users), workers, func(_, ui int) {
		sc := refinePool.Get().(*RefineScratch)
		defer refinePool.Put(sc)
		g := groupOf[ui]
		res.PerUser[ui] = RefineUser(ds, scorer, &users[ui], norms[ui], travs[g], auxes[g], k, seedOf(ui), sc)
	})
	for _, tr := range travs {
		res.Visited += tr.Visited
	}
	for i := range res.PerUser {
		res.Refined += res.PerUser[i].Scored
	}
	return res, nil
}
