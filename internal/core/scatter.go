package core

import (
	"fmt"
	"sort"

	"repro/internal/container"
	"repro/internal/parallel"
	"repro/internal/vocab"
)

// ScatterMode selects which single-index selection loop a shard's partial
// evaluation feeds. The coordinator replays the loop over the merged
// per-shard candidates, so each mode's evaluation body must match its
// single-index counterpart exactly (see ScatterSelect).
type ScatterMode int

const (
	// ScatterBest feeds Select's first-max scan (evalLocation bodies).
	ScatterBest ScatterMode = iota
	// ScatterTopL feeds SelectTopL's bounded-heap scan (direct keyword
	// selection — SelectTopL does not take evalLocation's saturation
	// shortcut, and neither does this mode).
	ScatterTopL
	// ScatterExhaustive feeds Baseline's location × combination scan.
	ScatterExhaustive
)

// String implements fmt.Stringer.
func (m ScatterMode) String() string {
	switch m {
	case ScatterBest:
		return "best"
	case ScatterTopL:
		return "topl"
	case ScatterExhaustive:
		return "exhaustive"
	default:
		return fmt.Sprintf("ScatterMode(%d)", int(m))
	}
}

// ScatterCandidate is one evaluated candidate location a shard returns to
// the coordinator: the selection plus |LU_ℓ|, the qualifying-user count
// that orders the single-index scan the coordinator replays.
type ScatterCandidate struct {
	Sel Selection
	LU  int
}

// ScatterStats counts the phase-2 work one ScatterSelect performed — the
// observable a coordinator's /stats and its tests use to show a forwarded
// floor skipping evaluations.
type ScatterStats struct {
	// Assigned counts this shard's assigned locations that survived the
	// candidate filter (for ScatterExhaustive: all assigned locations).
	Assigned int
	// Evaluated counts keyword selections actually computed.
	Evaluated int
	// SkippedFloor counts candidates skipped because |LU_ℓ| was below the
	// forwarded floor (ScatterBest only).
	SkippedFloor int
}

// WithThresholds returns a shallow clone of e prepared with the supplied
// per-user k-th best scores instead of thresholds computed by a local
// traversal. The clone shares the engine's immutable state (tree, scorer,
// users, norms, super-user) and owns only its prepared thresholds, so
// clones with different rsk vectors may select concurrently. This is how
// a shard serves phase 2 under coordinator-supplied global thresholds:
// selection reads only scorer/model state and the thresholds, never the
// shard's object tree, so global rsk makes its answers globally exact.
func (e *Engine) WithThresholds(k int, rsk []float64) (*Engine, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: k must be positive")
	}
	if len(rsk) != len(e.Users) {
		return nil, fmt.Errorf("core: %d thresholds for %d users", len(rsk), len(e.Users))
	}
	clone := *e
	clone.SetPrepared(k, append([]float64(nil), rsk...), minThreshold(rsk))
	return &clone, nil
}

// ScatterSelect evaluates this engine's share of a scatter-gathered
// selection: the candidate locations whose index appears in assigned,
// under the already-prepared per-user thresholds. It returns every
// evaluated candidate whose count is positive and at least floor, each
// normalized, in ascending location order. The coordinator replays the
// single-index scan over the union of shard candidates; exactness rests
// on three facts. (1) Every per-location evaluation here is the
// single-index body for the mode, and its result does not depend on any
// incumbent. (2) A candidate below the floor cannot change any replayed
// scan: for ScatterBest the floor is a count some other candidate already
// achieved, and the scan advances only on strictly greater counts.
// (3) For ScatterTopL the bounded heap's eviction among equal counts
// depends on the full offer sequence, so the floor is ignored and every
// positive-count candidate is returned — the replayed offer sequence is
// then identical to the single-index one. ScatterExhaustive returns each
// assigned location's first-in-combination-order best, which the
// coordinator folds in ascending location order — the same first-max the
// flat location × combination scan produces.
//
// workers bounds the goroutines used to evaluate locations concurrently
// (results are worker-count independent; see SelectParallel).
func (e *Engine) ScatterSelect(q Query, method KeywordMethod, mode ScatterMode, assigned []int, floor int, workers int) ([]ScatterCandidate, ScatterStats, error) {
	var stats ScatterStats
	if err := e.ensurePrepared(q); err != nil {
		return nil, stats, err
	}
	inAssigned := make(map[int]bool, len(assigned))
	for _, li := range assigned {
		if li < 0 || li >= len(q.Locations) {
			return nil, stats, fmt.Errorf("core: assigned location %d out of range", li)
		}
		inAssigned[li] = true
	}

	var out []ScatterCandidate
	switch mode {
	case ScatterBest, ScatterTopL:
		w := textrelCandidateSet(q)
		all := e.locationCandidates(q, w, true)
		lcs := all[:0:0]
		for _, lc := range all {
			if !inAssigned[lc.li] {
				continue
			}
			stats.Assigned++
			if mode == ScatterBest && len(lc.users) < floor {
				stats.SkippedFloor++
				continue
			}
			lcs = append(lcs, lc)
		}
		stats.Evaluated = len(lcs)
		sels := make([]Selection, len(lcs))
		parallel.ForN(len(lcs), workers, func(i int) {
			if mode == ScatterBest {
				sels[i] = e.evalLocation(q, method, w, lcs[i], 1)
				return
			}
			// SelectTopL's body: keyword selection without the saturation
			// shortcut.
			if method == KeywordsApprox {
				sels[i] = e.selectKeywordsGreedy(q, lcs[i], w)
			} else {
				sels[i] = e.selectKeywordsExact(q, lcs[i], w, 1)
			}
		})
		for i, sel := range sels {
			if sel.Count() == 0 || (mode == ScatterBest && sel.Count() < floor) {
				continue
			}
			sel.normalize()
			out = append(out, ScatterCandidate{Sel: sel, LU: len(lcs[i].users)})
		}
	case ScatterExhaustive:
		lis := append([]int(nil), assigned...)
		stats.Assigned = len(lis)
		stats.Evaluated = len(lis)
		sels := make([]Selection, len(lis))
		allUsers := e.allUserIndexes()
		parallel.ForN(len(lis), workers, func(i int) {
			sels[i] = e.exhaustiveLocationBest(q, lis[i], allUsers)
		})
		for _, sel := range sels {
			if sel.Count() == 0 {
				continue
			}
			sel.normalize()
			out = append(out, ScatterCandidate{Sel: sel, LU: sel.Count()})
		}
	default:
		return nil, stats, fmt.Errorf("core: unknown scatter mode %d", int(mode))
	}

	sortCandidatesByLoc(out)
	return out, stats, nil
}

// exhaustiveLocationBest is Baseline's inner loop for one location: the
// first combination (in enumeration order) achieving the location's
// maximum verified user count.
func (e *Engine) exhaustiveLocationBest(q Query, li int, all []int) Selection {
	best := Selection{LocIndex: -1}
	container.Combinations(q.Keywords, q.WS, func(combo []vocab.TermID) bool {
		add := append([]vocab.TermID(nil), combo...)
		doc := q.OxDoc.MergeTerms(add)
		var users []int32
		for _, ui := range all {
			if e.isBRSTkNN(q, li, doc, ui) {
				users = append(users, e.Users[ui].ID)
			}
		}
		if len(users) > best.Count() {
			best = Selection{
				LocIndex: li,
				Location: q.Locations[li],
				Keywords: add,
				Users:    users,
			}
		}
		return true
	})
	return best
}

func sortCandidatesByLoc(cands []ScatterCandidate) {
	sort.Slice(cands, func(i, j int) bool {
		return cands[i].Sel.LocIndex < cands[j].Sel.LocIndex
	})
}
