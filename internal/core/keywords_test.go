package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/textrel"
	"repro/internal/vocab"
)

// TestExactScanAllocations: Algorithm 4's scan allocates per location and
// per combination size, never per combination, so at a location where no
// combination beats the bare count, doubling the candidate keywords at
// fixed ws leaves its allocation count where it was. The candidates stay
// below 8: prepareExact's keyword set is a map, which allocates again as
// it outgrows its first group.
func TestExactScanAllocations(t *testing.T) {
	f := newFixture(t, textrel.TFIDF, 0.5, 300, 20, 4, 42)
	// Thresholds no score reaches: the bare count is 0 and stays the best.
	rsk := make([]float64, len(f.us.Users))
	lc := locCandidate{li: 0}
	var terms []vocab.TermID
	for ui, u := range f.us.Users {
		rsk[ui] = math.MaxFloat64
		lc.users = append(lc.users, ui)
		for _, t := range u.Doc.Terms() {
			if !slices.Contains(terms, t) {
				terms = append(terms, t)
			}
		}
	}
	slices.Sort(terms)
	if len(terms) < 6 {
		t.Fatalf("the cohort holds %d distinct keywords, want at least 6", len(terms))
	}
	allocs := func(n int) float64 {
		q := f.query(2, 5)
		q.Keywords = terms[:n]
		w := textrel.NewCandidateSet(q.Keywords)
		var sc exactScratch
		return testing.AllocsPerRun(20, func() {
			if sel := f.engine.selectKeywordsExact(q, rsk, lc, w, &sc); sel.Count() != 0 || len(sel.Keywords) != 0 {
				t.Fatalf("%d candidates: %+v beats the bare count under unreachable thresholds", n, sel)
			}
		})
	}
	if three, six := allocs(3), allocs(6); three != six {
		t.Fatalf("the exact scan allocates %v times over 3 candidate keywords, %v over 6", three, six)
	}
}
