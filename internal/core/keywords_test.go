package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/textrel"
	"repro/internal/vocab"
)

// TestExactScanAllocations: Algorithm 4's scan allocates per location and
// per combination size, never per combination or per candidate keyword, so
// at a location where no combination beats the bare count, quadrupling the
// candidate keywords at fixed ws leaves its allocation count where it was.
func TestExactScanAllocations(t *testing.T) {
	f := newFixture(t, textrel.TFIDF, 0.5, 300, 60, 4, 42)
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
	if len(terms) < 12 {
		t.Fatalf("the cohort holds %d distinct keywords, want at least 12", len(terms))
	}
	allocs := func(n int) float64 {
		q := f.query(2, 5)
		q.Keywords = terms[:n]
		sc := newExactScratches(q, 1)[0]
		return testing.AllocsPerRun(20, func() {
			if sel := f.engine.selectKeywordsExact(q, rsk, lc, &sc); sel.Count() != 0 || len(sel.Keywords) != 0 {
				t.Fatalf("%d candidates: %+v beats the bare count under unreachable thresholds", n, sel)
			}
		})
	}
	if three, twelve := allocs(3), allocs(12); three != twelve {
		t.Fatalf("the exact scan allocates %v times over 3 candidate keywords, %v over 12", three, twelve)
	}
}

// TestUBUserAllocationFree pins UBL(ℓ, u), which a scan evaluates for
// every location and user: for a user of three terms, all candidates, its
// bound allocates nothing.
func TestUBUserAllocationFree(t *testing.T) {
	f := newFixture(t, textrel.TFIDF, 0.5, 300, 20, 3, 42)
	ui := slices.IndexFunc(f.us.Users, func(u dataset.User) bool { return u.Doc.Unique() == 3 })
	if ui < 0 {
		t.Fatal("no user of three distinct terms")
	}
	q := f.query(1, 5)
	q.Keywords = f.us.Users[ui].Doc.Terms()
	w := textrel.NewCandidateSet(q.Keywords)
	if allocs := testing.AllocsPerRun(100, func() { f.engine.ubUser(q, 0, ui, w) }); allocs != 0 {
		t.Fatalf("ubUser allocates %v times for a user of three terms", allocs)
	}
}
