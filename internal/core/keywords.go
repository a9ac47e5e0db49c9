package core

import (
	"slices"

	"repro/internal/container"
	"repro/internal/textrel"
	"repro/internal/vocab"
)

// exactPrep is the per-location state Algorithm 4 shares across keyword
// combinations: the pruned candidate keywords, the user partition, and the
// zero-keyword floor selection every combination must strictly beat.
type exactPrep struct {
	rsk       []float64
	li        int
	cand      []vocab.TermID
	contested []contestedUser
	alwaysIn  []int32
	bare      Selection
	maxSize   int
}

// prepareExact runs the user- and keyword-pruning of Section 6.2.2 once
// for a location.
func (e *Engine) prepareExact(q Query, rsk []float64, lc locCandidate, sc *exactScratch) exactPrep {
	li := lc.li

	// Keyword pruning: only candidates occurring in at least one
	// qualifying user's description can change any user's relevance.
	cand := e.keywordsInUsers(lc.users, sc)

	// Users already qualifying on ox's bare description (lower bound
	// LBL(ℓ,u) = exact zero-keyword STS ≥ RSk(u)) count for every
	// combination under addition-monotone models; under LM an added
	// keyword can dilute their score below RSk(u), so they stay contested
	// (tupleUsersInto re-scores them per combination).
	var alwaysIn []int32
	var contested []contestedUser
	monotone := e.Scorer.Model.AdditionMonotone()
	var bare []int32
	for _, ui := range lc.users {
		qualified := e.isBRSTkNN(q, rsk, li, q.OxDoc, ui)
		if qualified {
			bare = append(bare, e.Users[ui].ID)
			if monotone {
				alwaysIn = append(alwaysIn, e.Users[ui].ID)
				continue
			}
		}
		contested = append(contested, contestedUser{ui: ui, bareQualified: qualified})
	}

	// Definition 1 admits any |W'| ≤ ws. Under TF-IDF and KO larger sets
	// never hurt, but under the Language Model an added keyword lengthens
	// ox.d and can dilute other term weights, so smaller sets may win;
	// enumerate every size up to ws (the size-ws stratum dominates the
	// cost). When the pruned candidate set already fits within ws this
	// degenerates to the paper's early-termination case.
	maxSize := q.WS
	if len(cand) < maxSize {
		maxSize = len(cand)
	}
	return exactPrep{
		rsk: rsk, li: li, cand: cand, contested: contested, alwaysIn: alwaysIn,
		bare:    Selection{LocIndex: li, Location: q.Locations[li], Users: bare},
		maxSize: maxSize,
	}
}

// exactScratch holds one worker's reusable buffers for the combination
// scan — the qualifying-user list and the merged-document buffers, the
// per-combination allocations of the scan, paid once per worker instead —
// and for keyword pruning: the scan's candidate keywords W, sorted once
// and shared by its workers, a mark per keyword and the pruned list.
// newExactScratches makes them; a scratch must not be shared between
// concurrent scans.
type exactScratch struct {
	users []int32
	merge vocab.MergeScratch

	kw     []vocab.TermID // W, ascending and distinct; read-only
	marked []bool         // marked[i]: kw[i] occurs in a user met so far
	cand   []vocab.TermID // keywordsInUsers' result
}

// newExactScratches returns n scratches for the scans of q, sharing its
// candidate keywords sorted once.
func newExactScratches(q Query, n int) []exactScratch {
	kw := slices.Compact(slices.Sorted(slices.Values(q.Keywords)))
	out := make([]exactScratch, n)
	for i := range out {
		out[i].kw = kw
	}
	return out
}

// selectKeywordsExact implements Algorithm 4: enumerate the combinations
// of the pruned candidate keywords, size by size up to ws and each size in
// lexicographic order, count each tuple's BRSTkNN exactly with the user-
// and keyword-pruning of Section 6.2.2, and return the first combination
// strictly beating the bare count and every earlier one.
//
//maxbr:hotpath
func (e *Engine) selectKeywordsExact(q Query, rsk []float64, lc locCandidate, sc *exactScratch) Selection {
	p := e.prepareExact(q, rsk, lc, sc)
	best := p.bare
	//maxbr:ignore hotpathalloc one closure per location, not per combination: Combinations invokes it in a loop internally
	keep := func(combo []vocab.TermID) bool {
		users := e.tupleUsersInto(q, &p, combo, sc)
		if len(users) > best.Count() {
			best = Selection{
				LocIndex: p.li,
				Location: q.Locations[p.li],
				Keywords: append([]vocab.TermID(nil), combo...),
				Users:    append([]int32(nil), users...),
			}
		}
		return true
	}
	for size := 1; size <= p.maxSize; size++ {
		container.Combinations(p.cand, size, keep)
	}
	return best
}

// contestedUser is a qualifying-list user whose membership depends on the
// chosen keyword combination. bareQualified records whether ox's bare
// description already clears the user's threshold (relevant under LM,
// where additions may push them back below it).
type contestedUser struct {
	ui            int
	bareQualified bool
}

// tupleUsersInto counts the BRSTkNN of 〈location p.li, ox.d ∪ combo〉: the
// always-qualifying users plus every contested user whose exact score with
// the combination clears their threshold. Contested users sharing no
// keyword with the combination are skipped unless they qualified on the
// bare description — additions can only lower their score (strictly, under
// LM) or leave it unchanged, never raise it. The returned slice aliases
// the scratch and stays valid only until its next use; callers retaining
// it must copy.
func (e *Engine) tupleUsersInto(q Query, p *exactPrep, combo []vocab.TermID, sc *exactScratch) []int32 {
	users := append(sc.users[:0], p.alwaysIn...)
	doc := q.OxDoc.MergeTermsInto(combo, &sc.merge)
	for _, c := range p.contested {
		if !c.bareQualified && !overlapsAny(e.Users[c.ui].Doc, combo) {
			continue // added keywords cannot raise this user's score
		}
		if e.isBRSTkNN(q, p.rsk, p.li, doc, c.ui) {
			users = append(users, e.Users[c.ui].ID)
		}
	}
	sc.users = users
	return users
}

func overlapsAny(d vocab.Doc, terms []vocab.TermID) bool {
	for _, t := range terms {
		if d.Has(t) {
			return true
		}
	}
	return false
}

// keywordsInUsers returns W ∩ (∪ u.d over the given users), ascending:
// it marks the keywords of sc.kw the users' terms meet and collects the
// marked ones in order, clearing the marks. The result aliases sc and
// stays valid until its next use.
func (e *Engine) keywordsInUsers(users []int, sc *exactScratch) []vocab.TermID {
	if cap(sc.marked) < len(sc.kw) {
		sc.marked = make([]bool, len(sc.kw))
	}
	marked := sc.marked[:len(sc.kw)]
	for _, ui := range users {
		for _, t := range e.Users[ui].Doc.Terms() {
			if i, ok := slices.BinarySearch(sc.kw, t); ok {
				marked[i] = true
			}
		}
	}
	cand := sc.cand[:0]
	for i, m := range marked {
		if m {
			cand = append(cand, sc.kw[i])
			marked[i] = false
		}
	}
	sc.cand = cand
	return cand
}

// selectKeywordsGreedy implements the greedy keyword selection of
// Section 6.2.1: build, for every candidate keyword, the optimistic user
// list LUW_w (via the HW_{w,u} top-weighted completion), run greedy
// maximum coverage, then count the chosen set exactly. The lists are
// optimistic, so the count is at most the exact selection's and carries
// no approximation guarantee: it may be zero where the exact one is not.
func (e *Engine) selectKeywordsGreedy(q Query, rsk []float64, lc locCandidate, w textrel.CandidateSet) Selection {
	li := lc.li

	// Preprocessing: LUW_w per keyword. A user joins LUW_w when w's
	// top-weighted completion HW_{w,u} qualifies them (the paper's test),
	// or when w alone does — the singleton test matters under LM, where
	// the extra completion keywords lengthen ox.d and can dilute the very
	// score the completion was meant to maximize.
	luw := make(map[vocab.TermID][]int)
	for _, ui := range lc.users {
		u := &e.Users[ui]
		for _, t := range u.Doc.Terms() {
			if !w[t] {
				continue
			}
			hw := e.Scorer.TopWeightedCandidates(q.OxDoc, u.Doc, w, q.WS, t, true)
			qualifies := e.sts(q, li, q.OxDoc.MergeTerms(hw), ui) >= rsk[ui]
			if !qualifies && len(hw) > 1 {
				qualifies = e.sts(q, li, q.OxDoc.MergeTerms([]vocab.TermID{t}), ui) >= rsk[ui]
			}
			if qualifies {
				luw[t] = append(luw[t], ui)
			}
		}
	}

	// A keyword ox.d already holds leaves ox.d as it is: choosing it would
	// spend a slot on its completion's credit.
	for t := range luw {
		if q.OxDoc.Has(t) {
			delete(luw, t)
		}
	}

	// Greedy maximum coverage over the LUW sets.
	covered := make(map[int]bool)
	var chosen []vocab.TermID
	for len(chosen) < q.WS && len(luw) > 0 {
		var bestT vocab.TermID
		bestGain := -1
		for t, users := range luw {
			gain := 0
			for _, ui := range users {
				if !covered[ui] {
					gain++
				}
			}
			if gain > bestGain || (gain == bestGain && t < bestT) {
				bestT, bestGain = t, gain
			}
		}
		if bestGain <= 0 {
			break
		}
		for _, ui := range luw[bestT] {
			covered[ui] = true
		}
		chosen = append(chosen, bestT)
		delete(luw, bestT)
	}

	// The LUW lists are optimistic; count exactly. Under LM a prefix of
	// the greedy choice can beat the full set (later picks dilute earlier
	// ones), so evaluate every prefix — ws exact counts, still far from
	// the exact method's C(|W|, ws).
	sel := Selection{LocIndex: li, Location: q.Locations[li]}
	sel.Users = e.countBRSTkNN(q, rsk, li, nil, lc.users) // zero-keyword floor
	for end := 1; end <= len(chosen); end++ {
		prefix := chosen[:end]
		users := e.countBRSTkNN(q, rsk, li, prefix, lc.users)
		if len(users) > len(sel.Users) {
			sel.Keywords = append([]vocab.TermID(nil), prefix...)
			sel.Users = users
		}
	}
	return sel
}
