package core

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/container"
	"repro/internal/geo"
	"repro/internal/parallel"
	"repro/internal/textrel"
	"repro/internal/topk"
	"repro/internal/vocab"
)

// ScanMode is the reduction a Scan feeds. It fixes the order the scan
// walks the candidate locations in and the rule by which it skips one.
type ScanMode int

const (
	// ScanBest feeds Best: locations in canonical order (|LU_ℓ|
	// descending, location index ascending), skipping one whose |LU_ℓ| is
	// below the floor or below a count already achieved. That is Algorithm
	// 3's early termination: in canonical order the achiever precedes the
	// skipped location, and Best advances only on a strictly greater count.
	ScanBest ScanMode = iota
	// ScanTopL feeds TopL: canonical order, skipping a location once L
	// evaluated locations beat its |LU_ℓ| strictly. Such a location can only
	// be offered to a full heap whose minimum exceeds it, so skipping it
	// changes neither the retained set nor the tie order.
	ScanTopL
	// ScanExhaustive is the Section 4 baseline: every location in location
	// order, each paired with every combination of exactly ws keywords and
	// every user; nothing is skipped.
	ScanExhaustive
)

// ScanSpec configures one Scan.
type ScanSpec struct {
	// Method is the keyword selection each location gets (ScanBest and
	// ScanTopL; ScanExhaustive enumerates combinations itself).
	Method KeywordMethod
	Mode   ScanMode
	// Assigned, when non-nil, restricts the scan to these location
	// indexes — a shard's share of a scatter-gathered query.
	Assigned []int
	// Floor (ScanBest only) is a count some location outside this scan
	// already achieved: locations with |LU_ℓ| below it are skipped and
	// candidates below it are not returned.
	Floor int
	// L (ScanTopL only, positive) is the shortlist length.
	L int
	// Workers bounds the goroutines evaluating locations; values <= 1 run
	// on the calling goroutine. Results do not depend on it.
	Workers int
}

// Candidate is one evaluated location: its best selection, normalized, and
// |LU_ℓ|, the qualifying-user count that orders the scan (for
// ScanExhaustive, which has no qualifying lists, the selection's count).
type Candidate struct {
	Sel Selection
	LU  int
}

// ScanStats counts the work one Scan performed.
type ScanStats struct {
	// Assigned counts the locations the scan considered: for ScanBest and
	// ScanTopL those with a non-empty qualifying list.
	Assigned int
	// Evaluated counts keyword selections actually computed.
	Evaluated int
	// SkippedFloor counts considered locations the mode's rule skipped.
	SkippedFloor int
}

// locCandidate is one candidate location with its qualifying-user list
// LU_ℓ (Algorithm 3): the users whose per-user upper bound admits them as
// potential BRSTkNN when ox is placed at the location.
type locCandidate struct {
	li    int
	users []int // indexes into e.Users
}

// Scan is phase 2: it evaluates the candidate locations of q under th and
// returns, in the mode's scan order, every evaluated candidate with a
// positive count (and, for ScanBest, a count of at least the floor).
// Locations fan out over up to spec.Workers goroutines; a skipped
// location is one the sequential walk would have skipped or stopped
// before, so every reduction of the result is worker-count independent,
// and with one worker the scan evaluates exactly the locations the
// paper's loop does.
func (e *Engine) Scan(q Query, th Thresholds, spec ScanSpec) ([]Candidate, ScanStats, error) {
	var stats ScanStats
	if err := q.Validate(); err != nil {
		return nil, stats, err
	}
	if th.K != q.K || len(th.RSk) != len(e.Users) {
		return nil, stats, fmt.Errorf("core: thresholds are not prepared for k=%d over %d users", q.K, len(e.Users))
	}
	// beatenBy is how many evaluated locations must beat a location's
	// |LU_ℓ| before it is skipped (0: never).
	beatenBy, floor := 0, 0
	switch spec.Mode {
	case ScanBest:
		beatenBy, floor = 1, spec.Floor
	case ScanTopL:
		if spec.L <= 0 {
			return nil, stats, fmt.Errorf("core: l must be positive")
		}
		beatenBy = spec.L
	case ScanExhaustive:
	default:
		return nil, stats, fmt.Errorf("core: unknown scan mode %d", int(spec.Mode))
	}
	var assigned []bool
	if spec.Assigned != nil {
		assigned = make([]bool, len(q.Locations))
		for _, li := range spec.Assigned {
			if li < 0 || li >= len(q.Locations) {
				return nil, stats, fmt.Errorf("core: assigned location %d out of range", li)
			}
			assigned[li] = true
		}
	}

	w := textrel.NewCandidateSet(q.Keywords)
	var lcs []locCandidate
	if spec.Mode == ScanExhaustive {
		// The baseline qualifies no user: every location counts over all
		// of them, one shared list.
		all := make([]int, len(e.Users))
		for ui := range all {
			all[ui] = ui
		}
		for li := range q.Locations {
			if assigned == nil || assigned[li] {
				lcs = append(lcs, locCandidate{li: li, users: all})
			}
		}
	} else {
		lcs = e.locationCandidates(q, th, w, assigned)
	}

	// beaten holds the beatenBy largest counts evaluated so far.
	var mu sync.Mutex
	beaten := container.NewTopK[struct{}](max(beatenBy, 1))
	sels := make([]Selection, len(lcs))
	done := make([]bool, len(lcs))
	scratch := newExactScratches(q, parallel.Workers(len(lcs), spec.Workers))
	parallel.ForNWorkers(len(lcs), spec.Workers, func(wk, i int) {
		lu := len(lcs[i].users)
		mu.Lock()
		skip := lu < floor || beatenBy > 0 && beaten.Full() && beaten.Threshold() > float64(lu)
		mu.Unlock()
		if skip {
			return
		}
		if spec.Mode == ScanExhaustive {
			sels[i] = e.exhaustiveLocationBest(q, th.RSk, lcs[i])
		} else {
			sels[i] = e.evalLocation(q, th, spec.Method, w, lcs[i], &scratch[wk])
		}
		done[i] = true
		mu.Lock()
		beaten.Offer(struct{}{}, float64(sels[i].Count()))
		mu.Unlock()
	})

	stats.Assigned = len(lcs)
	var out []Candidate
	for i, lc := range lcs {
		if !done[i] {
			stats.SkippedFloor++
			continue
		}
		stats.Evaluated++
		sel := sels[i]
		if sel.Count() == 0 || sel.Count() < floor {
			continue
		}
		sel.normalize()
		lu := len(lc.users)
		if spec.Mode == ScanExhaustive {
			lu = sel.Count()
		}
		out = append(out, Candidate{Sel: sel, LU: lu})
	}
	return out, stats, nil
}

// Best reduces a ScanBest or ScanExhaustive scan to the answer: the first
// candidate in scan order whose count strictly beats every earlier one
// (LocIndex -1 when no location attracts any user).
func Best(cands []Candidate) Selection {
	return container.FirstMax(cands, candSel, Selection.Count, Selection{LocIndex: -1})
}

// TopL reduces a ScanTopL scan to up to l selections ranked by |BRSTkNN|
// descending — the spatial-textual analogue of the ℓ-MaxBRkNN extension:
// the candidates are offered in scan order to a bounded heap, whose
// eviction among equal counts depends on that order. l must be positive.
func TopL(cands []Candidate, l int) []Selection {
	return container.TopByCount(cands, l, candSel, Selection.Count, func(s Selection) int { return s.LocIndex })
}

func candSel(c Candidate) Selection { return c.Sel }

// evalLocation computes one candidate location's best selection — the
// per-location body every ScanBest and ScanTopL scan shares.
func (e *Engine) evalLocation(q Query, th Thresholds, method KeywordMethod, w textrel.CandidateSet, lc locCandidate, sc *exactScratch) Selection {
	// Group-level lower-bound shortcut (lines 3.11–3.13): when even the
	// intersection text of the bare ox.d clears the group threshold, no
	// keyword is needed. We confirm per user with the exact zero-keyword
	// STS: the group bound clears only the group threshold, the smallest
	// RSk among the users, so the paper's unverified version can overcount
	// users whose own RSk is higher. The shortcut is conclusive only when
	// the verified count saturates LU_ℓ — then it is exactly what keyword
	// selection returns, since a combination must strictly beat the bare
	// count and can win no user outside LU_ℓ; otherwise keywords may still
	// win users, and the keyword selectors' zero-keyword floor subsumes
	// this count.
	if e.lbGroup(q.Locations[lc.li], q.OxDoc, e.su) >= th.super {
		users := e.countBRSTkNN(q, th.RSk, lc.li, nil, lc.users)
		if len(users) == len(lc.users) {
			return Selection{LocIndex: lc.li, Location: q.Locations[lc.li], Users: users}
		}
	}
	return e.selectKeywords(q, th.RSk, method, lc, w, sc)
}

// selectKeywords runs method's keyword selection (Section 6.2) over one
// location's qualifying users: Algorithm 4 on sc, or the greedy
// approximation.
func (e *Engine) selectKeywords(q Query, rsk []float64, method KeywordMethod, lc locCandidate, w textrel.CandidateSet, sc *exactScratch) Selection {
	if method == KeywordsApprox {
		return e.selectKeywordsGreedy(q, rsk, lc, w)
	}
	return e.selectKeywordsExact(q, rsk, lc, sc)
}

// exhaustiveLocationBest is the Section 4 baseline for one location, whose
// list holds every user: the first combination of exactly ws keywords (in
// enumeration order) achieving the location's maximum verified user count.
// Folding these in location order with a strict first-max is the flat
// location × combination scan.
func (e *Engine) exhaustiveLocationBest(q Query, rsk []float64, lc locCandidate) Selection {
	best := Selection{LocIndex: -1}
	container.Combinations(q.Keywords, q.WS, func(combo []vocab.TermID) bool {
		add := append([]vocab.TermID(nil), combo...)
		if users := e.countBRSTkNN(q, rsk, lc.li, add, lc.users); len(users) > best.Count() {
			best = Selection{LocIndex: lc.li, Location: q.Locations[lc.li], Keywords: add, Users: users}
		}
		return true
	})
	return best
}

// locationCandidates builds the (assigned) candidate locations with their
// qualifying user lists — the first half of Algorithm 3 — in canonical
// order: |LU_ℓ| descending, location index ascending on ties.
func (e *Engine) locationCandidates(q Query, th Thresholds, w textrel.CandidateSet, assigned []bool) []locCandidate {
	var lcs []locCandidate
	uniDoc := vocab.DocFromTerms(e.su.Uni)
	for li := range q.Locations {
		if assigned != nil && !assigned[li] {
			continue
		}
		if e.ubGroup(q, li, e.su, uniDoc, w) < th.super {
			continue
		}
		lc := locCandidate{li: li}
		for ui := range e.Users {
			if e.ubUser(q, li, ui, w) >= th.RSk[ui] {
				lc.users = append(lc.users, ui)
			}
		}
		if len(lc.users) > 0 {
			lcs = append(lcs, lc)
		}
	}
	sort.Slice(lcs, func(i, j int) bool {
		if len(lcs[i].users) != len(lcs[j].users) {
			return len(lcs[i].users) > len(lcs[j].users)
		}
		return lcs[i].li < lcs[j].li
	})
	return lcs
}

// ubUser is UBL(ℓ, u): the upper bound on user ui's score for ox at
// location li with any ws of the candidate keywords w.
func (e *Engine) ubUser(q Query, li, ui int, w textrel.CandidateSet) float64 {
	ss := e.Scorer.SS(q.Locations[li], e.Users[ui].Loc)
	return e.Scorer.Combine(ss, e.Scorer.TSAddUpperBound(q.OxDoc, e.Users[ui].Doc, w, q.WS), e.norms[ui])
}

// ubGroup is UBL(ℓ, us): the upper bound on any grouped user's score for
// ox at location li with any ws of the candidate keywords w, over the
// super-user su — the cohort's, or a MIUR-tree entry's — whose keyword
// union uni spells out as a document.
func (e *Engine) ubGroup(q Query, li int, su topk.SuperUser, uni vocab.Doc, w textrel.CandidateSet) float64 {
	ss := e.Scorer.SSMax(geo.RectFromPoint(q.Locations[li]), su.MBR)
	return e.Scorer.Combine(ss, e.Scorer.TSAddUpperBound(q.OxDoc, uni, w, q.WS), su.MinNorm)
}

// lbGroup is the lower bound on any grouped user's score for an object at
// loc with document doc, over the super-user su — the cohort's (Algorithm
// 3's lines 3.11–3.13), or a MIUR-tree entry's: the least spatial
// similarity to su's MBR, and doc's text over su's keyword intersection
// under su's largest normalizer.
func (e *Engine) lbGroup(loc geo.Point, doc vocab.Doc, su topk.SuperUser) float64 {
	return e.Scorer.Combine(e.Scorer.SSMin(geo.RectFromPoint(loc), su.MBR), e.Scorer.Model.Sum(doc, su.Int), su.MaxNorm)
}
