package core

import (
	"testing"

	"repro/internal/textrel"
)

// topL runs a ScanTopL scan and reduces it with TopL.
func (f *fixture) topL(t testing.TB, q Query, th Thresholds, method KeywordMethod, l int) []Selection {
	t.Helper()
	cands, _, err := f.engine.Scan(q, th, ScanSpec{Method: method, Mode: ScanTopL, L: l})
	if err != nil {
		t.Fatal(err)
	}
	return TopL(cands, l)
}

func TestSelectTopLRankedAndConsistent(t *testing.T) {
	f := newFixture(t, textrel.LM, 0.5, 400, 50, 8, 1100)
	q := f.query(2, 5)
	th := f.prepare(t, q.K)
	top3 := f.topL(t, q, th, KeywordsExact, 3)
	if len(top3) == 0 {
		t.Skip("no location attracts any user on this instance")
	}
	// descending counts, distinct locations
	seen := map[int]bool{}
	for i, s := range top3 {
		if i > 0 && top3[i-1].Count() < s.Count() {
			t.Fatalf("shortlist not descending at %d", i)
		}
		if seen[s.LocIndex] {
			t.Fatalf("location %d appears twice", s.LocIndex)
		}
		seen[s.LocIndex] = true
	}
	// the shortlist head must equal the single-selection winner's count
	if single := f.best(t, q, th, ScanSpec{}); top3[0].Count() != single.Count() {
		t.Fatalf("top-1 of shortlist %d != best %d", top3[0].Count(), single.Count())
	}
}

func TestSelectTopLCoversAllLocationsWhenLLarge(t *testing.T) {
	f := newFixture(t, textrel.KO, 0.5, 300, 30, 5, 1200)
	q := f.query(2, 5)
	all := f.topL(t, q, f.prepare(t, q.K), KeywordsApprox, 100)
	if len(all) > len(q.Locations) {
		t.Fatalf("returned %d selections for %d locations", len(all), len(q.Locations))
	}
}

func TestSelectTopLValidation(t *testing.T) {
	f := newFixture(t, textrel.KO, 0.5, 200, 20, 3, 1300)
	q := f.query(2, 5)
	th := f.prepare(t, q.K)
	if _, _, err := f.engine.Scan(q, th, ScanSpec{Mode: ScanTopL}); err == nil {
		t.Error("l=0 should be rejected")
	}
	if _, _, err := f.engine.Scan(q, th, ScanSpec{Mode: ScanExhaustive + 1}); err == nil {
		t.Error("an unknown mode should be rejected")
	}
}

// TestSelectNoBestFirstSameAnswer: evaluating every candidate location (a
// top-l scan with l = |L| never stops early) finds the count Algorithm 3's
// early termination finds — the ablation's "no early stop" row.
func TestSelectNoBestFirstSameAnswer(t *testing.T) {
	for seed := int64(1600); seed < 1604; seed++ {
		f := newFixture(t, textrel.LM, 0.5, 300, 30, 6, seed)
		q := f.query(2, 5)
		th := f.prepare(t, q.K)
		a := f.best(t, q, th, ScanSpec{})
		cands, st, err := f.engine.Scan(q, th, ScanSpec{Mode: ScanTopL, L: len(q.Locations)})
		if err != nil {
			t.Fatal(err)
		}
		if st.Evaluated != st.Assigned {
			t.Fatalf("seed %d: l = |L| evaluated %d of %d locations", seed, st.Evaluated, st.Assigned)
		}
		b := 0
		if all := TopL(cands, len(q.Locations)); len(all) > 0 {
			b = all[0].Count()
		}
		if a.Count() != b {
			t.Fatalf("seed %d: ordering changed the answer: %d vs %d", seed, a.Count(), b)
		}
	}
}
