package textrel

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/vocab"
)

func TestScorerSS(t *testing.T) {
	ds, _ := corpus3(t) // space diagonal: (0,0)-(6,8) = 10
	s := NewScorer(ds, KO, 0.5)
	if s.DMax != 10 {
		t.Fatalf("DMax = %v, want 10", s.DMax)
	}
	if got := s.SS(geo.Point{X: 0, Y: 0}, geo.Point{X: 0, Y: 0}); got != 1 {
		t.Errorf("SS same point = %v, want 1", got)
	}
	if got := s.SS(geo.Point{X: 0, Y: 0}, geo.Point{X: 6, Y: 8}); !near(got, 0) {
		t.Errorf("SS at dmax = %v, want 0", got)
	}
	if got := s.SS(geo.Point{X: 0, Y: 0}, geo.Point{X: 3, Y: 4}); !near(got, 0.5) {
		t.Errorf("SS half = %v, want 0.5", got)
	}
	// beyond dmax clamps to 0
	if got := s.SS(geo.Point{X: -60, Y: 0}, geo.Point{X: 60, Y: 0}); got != 0 {
		t.Errorf("SS beyond dmax = %v, want 0", got)
	}
}

func TestScorerSSMinMax(t *testing.T) {
	ds, _ := corpus3(t)
	s := NewScorer(ds, KO, 0.5)
	a := geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 1, Y: 1}}
	b := geo.Rect{Min: geo.Point{X: 4, Y: 4}, Max: geo.Point{X: 5, Y: 5}}
	if s.SSMax(a, b) <= s.SSMin(a, b) {
		t.Error("SSMax must exceed SSMin for separated rects")
	}
	// Every point pair's SS lies within [SSMin, SSMax].
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		pa := geo.Point{X: rng.Float64(), Y: rng.Float64()}
		pb := geo.Point{X: 4 + rng.Float64(), Y: 4 + rng.Float64()}
		ss := s.SS(pa, pb)
		if ss < s.SSMin(a, b) || ss > s.SSMax(a, b) {
			t.Fatalf("SS %v outside [%v,%v]", ss, s.SSMin(a, b), s.SSMax(a, b))
		}
	}
}

func TestScorerAlphaValidation(t *testing.T) {
	ds, _ := corpus3(t)
	defer func() {
		if recover() == nil {
			t.Error("alpha > 1 should panic")
		}
	}()
	NewScorer(ds, KO, 1.5)
}

func TestKOScoreExactFormula(t *testing.T) {
	ds, terms := corpus3(t)
	s := NewScorer(ds, KO, 0.5)
	ud := vocab.DocFromTerms([]vocab.TermID{terms[0], terms[2]}) // {a, c}
	norm := s.Norm(ud)
	if norm != 2 {
		t.Fatalf("Norm = %v, want |u.d| = 2", norm)
	}
	// o1 = {a,b}: overlap 1 → TS = 1/2
	if got := ts(s, ds.Objects[1].Doc, ud, norm); !near(got, 0.5) {
		t.Errorf("KO TS = %v, want 0.5", got)
	}
	// o2 = {b,c}: overlap 1 → 0.5; o0 = {a}: 0.5
	if got := ts(s, ds.Objects[2].Doc, ud, norm); !near(got, 0.5) {
		t.Errorf("KO TS = %v, want 0.5", got)
	}
}

func TestLMScoreEquation4(t *testing.T) {
	ds, terms := corpus3(t)
	s := NewScorer(ds, LM, 0.5)
	lm := s.Model
	ud := vocab.DocFromTerms([]vocab.TermID{terms[0], terms[1]})
	// Pmax = maxp(a) + maxp(b), each the floor plus the largest increment
	wantNorm := lm.FloorWeight(terms[0]) + lm.FloorWeight(terms[1]) + lm.MaxWeight(terms[0]) + lm.MaxWeight(terms[1])
	if got := s.Norm(ud); !near(got, wantNorm) {
		t.Errorf("Norm = %v, want %v", got, wantNorm)
	}
	d1 := ds.Objects[1].Doc
	want := (lm.FloorWeight(terms[0]) + lm.FloorWeight(terms[1]) + lm.Weight(d1, terms[0]) + lm.Weight(d1, terms[1])) / wantNorm
	if got := ts(s, d1, ud, wantNorm); !near(got, want) {
		t.Errorf("TS = %v, want %v", got, want)
	}
}

func TestSTSCombination(t *testing.T) {
	ds, terms := corpus3(t)
	for _, alpha := range []float64{0, 0.3, 1} {
		s := NewScorer(ds, KO, alpha)
		ud := vocab.DocFromTerms([]vocab.TermID{terms[0]})
		norm := s.Norm(ud)
		uLoc := geo.Point{X: 0, Y: 0}
		o := ds.Objects[1]
		want := alpha*s.SS(o.Loc, uLoc) + (1-alpha)*ts(s, o.Doc, ud, norm)
		if got := s.STS(o.Loc, o.Doc, uLoc, ud, norm); !near(got, want) {
			t.Errorf("α=%v: STS = %v, want %v", alpha, got, want)
		}
	}
}

// Property: TS of any corpus document is within [0,1] under every measure.
func TestTSNormalizedRange(t *testing.T) {
	ds := dataset.GenerateFlickr(dataset.DefaultFlickrConfig(400))
	us := dataset.GenerateUsers(ds, dataset.UserConfig{NumUsers: 50, UL: 3, UW: 15, Area: 10, Seed: 3})
	for _, kind := range []MeasureKind{LM, TFIDF, KO, BM25} {
		s := NewScorer(ds, kind, 0.5)
		norms := s.UserNorms(us.Users)
		for ui := range us.Users {
			for _, o := range ds.Objects {
				ts := ts(s, o.Doc, us.Users[ui].Doc, norms[ui])
				if ts < 0 || ts > 1 {
					t.Fatalf("%s: TS = %v out of [0,1]", kind, ts)
				}
			}
		}
	}
}

func TestUserNormsAndGroupNorms(t *testing.T) {
	ds, terms := corpus3(t)
	s := NewScorer(ds, KO, 0.5)
	users := []dataset.User{
		{ID: 0, Doc: vocab.DocFromTerms([]vocab.TermID{terms[0]})},
		{ID: 1, Doc: vocab.DocFromTerms([]vocab.TermID{terms[0], terms[1], terms[2]})},
	}
	norms := s.UserNorms(users)
	if norms[0] != 1 || norms[1] != 3 {
		t.Fatalf("norms = %v", norms)
	}
}

func TestNormFallbackForUnknownTerms(t *testing.T) {
	ds, _ := corpus3(t)
	s := NewScorer(ds, TFIDF, 0.5)
	ud := vocab.DocFromTerms([]vocab.TermID{vocab.TermID(500)})
	if got := s.Norm(ud); got != 1 {
		t.Errorf("norm for out-of-corpus doc = %v, want fallback 1", got)
	}
	if ts := ts(s, ds.Objects[0].Doc, ud, s.Norm(ud)); math.IsNaN(ts) {
		t.Error("TS must not be NaN")
	}
}
