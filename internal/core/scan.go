package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/container"
	"repro/internal/geo"
	"repro/internal/parallel"
	"repro/internal/textrel"
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
		for li := range q.Locations {
			if assigned == nil || assigned[li] {
				lcs = append(lcs, locCandidate{li: li})
			}
		}
	} else {
		lcs = e.locationCandidates(q, th, w, assigned)
	}

	// The exact keyword scan takes the workers the location fan-out
	// leaves idle.
	comboWorkers := 1
	if len(lcs) > 0 && spec.Workers/len(lcs) > 1 {
		comboWorkers = spec.Workers / len(lcs)
	}
	// beaten holds the beatenBy largest counts evaluated so far.
	var mu sync.Mutex
	beaten := container.NewTopK[struct{}](max(beatenBy, 1))
	sels := make([]Selection, len(lcs))
	done := make([]bool, len(lcs))
	scratch := make([]exactScratch, parallel.Workers(len(lcs), spec.Workers))
	parallel.ForNWorkers(len(lcs), spec.Workers, func(wk, i int) {
		lu := len(lcs[i].users)
		mu.Lock()
		skip := lu < floor || beatenBy > 0 && beaten.Full() && beaten.Threshold() > float64(lu)
		mu.Unlock()
		if skip {
			return
		}
		if spec.Mode == ScanExhaustive {
			sels[i] = e.exhaustiveLocationBest(q, th.RSk, lcs[i].li)
		} else {
			sels[i] = e.evalLocation(q, th, spec.Method, w, lcs[i], comboWorkers, &scratch[wk])
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

// SelectMultiple greedily places m objects (each with its own location and
// keyword set) to maximize the number of *distinct* users covered — the
// multi-service extension the FILM line of work motivates (Section 2.1).
// Each round is a ScanBest scan reduced by Best under a copy of th in
// which already-covered users are poisoned: an infinite RSk(u) fails every
// upper-bound test and every exact comparison, so the whole pruning stack
// skips them for free. The result inherits the greedy (1−1/e) coverage
// guarantee with respect to the per-round selections.
func (e *Engine) SelectMultiple(q Query, th Thresholds, method KeywordMethod, workers, m int) ([]Selection, error) {
	if m <= 0 {
		return nil, fmt.Errorf("core: m must be positive")
	}
	byID := make(map[int32]int, len(e.Users))
	for i := range e.Users {
		byID[e.Users[i].ID] = i
	}
	// The group bound stays th's: poisoning only raises thresholds.
	poisoned := th
	poisoned.RSk = slices.Clone(th.RSk)
	var out []Selection
	for round := 0; round < m; round++ {
		cands, _, err := e.Scan(q, poisoned, ScanSpec{Method: method, Workers: workers})
		if err != nil {
			return nil, err
		}
		sel := Best(cands)
		if sel.Count() == 0 {
			break // nobody left to win
		}
		out = append(out, sel)
		for _, uid := range sel.Users {
			poisoned.RSk[byID[uid]] = math.Inf(1)
		}
	}
	return out, nil
}

// evalLocation computes one candidate location's best selection — the
// per-location body every ScanBest and ScanTopL scan shares. comboWorkers
// bounds the goroutines the exact keyword scan may use (1 = sequential,
// on sc).
func (e *Engine) evalLocation(q Query, th Thresholds, method KeywordMethod, w textrel.CandidateSet, lc locCandidate, comboWorkers int, sc *exactScratch) Selection {
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
	lbSuper := e.Scorer.Alpha*e.Scorer.SSMin(geo.RectFromPoint(q.Locations[lc.li]), e.su.MBR) +
		(1-e.Scorer.Alpha)*e.su.LBText(weightSum(e.Scorer, q.OxDoc, e.su.Int))
	if lbSuper >= th.super {
		users := e.countBRSTkNN(q, th.RSk, lc.li, nil, lc.users)
		if len(users) == len(lc.users) {
			return Selection{LocIndex: lc.li, Location: q.Locations[lc.li], Users: users}
		}
	}
	if method == KeywordsApprox {
		return e.selectKeywordsGreedy(q, th.RSk, lc, w)
	}
	return e.selectKeywordsExact(q, th.RSk, lc, w, comboWorkers, sc)
}

// exhaustiveLocationBest is the Section 4 baseline for one location: the
// first combination of exactly ws keywords (in enumeration order)
// achieving the location's maximum verified user count over every user.
// Folding these in location order with a strict first-max is the flat
// location × combination scan.
func (e *Engine) exhaustiveLocationBest(q Query, rsk []float64, li int) Selection {
	best := Selection{LocIndex: -1}
	container.Combinations(q.Keywords, q.WS, func(combo []vocab.TermID) bool {
		add := append([]vocab.TermID(nil), combo...)
		doc := q.OxDoc.MergeTerms(add)
		var users []int32
		for ui := range e.Users {
			if e.isBRSTkNN(q, rsk, li, doc, ui) {
				users = append(users, e.Users[ui].ID)
			}
		}
		if len(users) > best.Count() {
			best = Selection{LocIndex: li, Location: q.Locations[li], Keywords: add, Users: users}
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
		ssUB := e.Scorer.SSMax(geo.RectFromPoint(q.Locations[li]), e.su.MBR)
		ubSuper := e.Scorer.STSAddUpperBound(ssUB, q.OxDoc, uniDoc, e.su.MinNorm, w, q.WS)
		if ubSuper < th.super {
			continue
		}
		lc := locCandidate{li: li}
		for ui := range e.Users {
			ss := e.Scorer.SS(q.Locations[li], e.Users[ui].Loc)
			ubl := e.Scorer.STSAddUpperBound(ss, q.OxDoc, e.Users[ui].Doc, e.norms[ui], w, q.WS)
			if ubl >= th.RSk[ui] {
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
