package core

import (
	"repro/internal/parallel"
	"repro/internal/textrel"
	"repro/internal/topk"
)

// ParallelOptions configures the parallel query engine. The zero value is
// the sequential paper pipeline; both phases treat Workers=1 as the
// sequential special case, so results are byte-identical across every
// Workers/Groups choice (ties are broken by object ID and candidate
// order throughout).
type ParallelOptions struct {
	// Workers bounds the goroutines used by each phase. Values <= 1 run
	// sequentially on the calling goroutine.
	Workers int
	// Groups is the number of spatial super-user groups the joint top-k
	// phase partitions the users into. Tighter groups prune more of the
	// object index, so Groups can usefully exceed Workers even on one
	// core. Values <= 0 default to Workers.
	Groups int
}

// Normalize resolves defaulted fields.
func (o ParallelOptions) Normalize() ParallelOptions {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.Groups <= 0 {
		o.Groups = o.Workers
	}
	return o
}

// PrepareJointParallel is the grouped, concurrent form of PrepareJoint:
// phase 1 partitions the users into opts.Groups spatial groups and runs
// the Section 5 group traversals and per-user refinements on a bounded
// worker pool. The prepared thresholds equal PrepareJoint's exactly.
func (e *Engine) PrepareJointParallel(k int, opts ParallelOptions) error {
	opts = opts.Normalize()
	res, err := topk.JointTopK(e.Tree, e.Scorer, e.Users, k, opts.Workers, opts.Groups, nil)
	if err != nil {
		return err
	}
	e.rsk = make([]float64, len(e.Users))
	for i, p := range res.PerUser {
		e.rsk[i] = p.RSk
	}
	e.rskSuper = minThreshold(e.rsk)
	e.preparedK = k
	return nil
}

// SelectParallel is the concurrent form of Select: candidate locations
// fan out over a bounded worker pool, and within a location the exact
// keyword-combination scan of Algorithm 4 is chunked across any workers
// the location fan-out leaves idle. A shared monotone incumbent count
// replaces Algorithm 3's sequential early termination: a location whose
// |LU_ℓ| is below the incumbent can never win and is skipped, the same
// locations the sequential break discards. The result is byte-identical
// to Select for every worker count.
func (e *Engine) SelectParallel(q Query, method KeywordMethod, opts ParallelOptions) (Selection, error) {
	opts = opts.Normalize()
	if opts.Workers <= 1 {
		return e.selectOrdered(q, method, true)
	}
	if err := e.ensurePrepared(q); err != nil {
		return Selection{}, err
	}
	w := textrelCandidateSet(q)
	lcs := e.locationCandidates(q, w, true)

	comboWorkers := 1
	if len(lcs) > 0 {
		comboWorkers = opts.Workers / len(lcs)
	}
	if comboWorkers < 1 {
		comboWorkers = 1
	}

	sels := make([]Selection, len(lcs))
	done := make([]bool, len(lcs))
	var incumbent parallel.MaxCounter
	parallel.ForN(len(lcs), opts.Workers, func(i int) {
		// Locations with |LU_ℓ| below an already-achieved count cannot win
		// or tie ahead of the achiever (canonical order is |LU_ℓ|-descending).
		if len(lcs[i].users) < incumbent.Get() {
			return
		}
		sels[i] = e.evalLocation(q, method, w, lcs[i], comboWorkers)
		done[i] = true
		incumbent.Raise(sels[i].Count())
	})

	best := Selection{LocIndex: -1}
	for i := range lcs {
		if done[i] && sels[i].Count() > best.Count() {
			best = sels[i]
		}
	}
	best.normalize()
	return best, nil
}

// minThreshold returns the canonical group threshold: the minimum per-user
// RSk. It is sound wherever RSk(us) is used (every user's k-th score is at
// least the super-user's) and — unlike the traversal-derived RSk(us) — it
// does not depend on how users were grouped, so sequential and parallel
// preparations agree on every downstream pruning decision.
func minThreshold(rsk []float64) float64 {
	if len(rsk) == 0 {
		return 0
	}
	min := rsk[0]
	for _, v := range rsk[1:] {
		if v < min {
			min = v
		}
	}
	return min
}

// textrelCandidateSet caches the candidate keyword set as a textrel set.
func textrelCandidateSet(q Query) textrel.CandidateSet {
	return textrel.NewCandidateSet(q.Keywords)
}
