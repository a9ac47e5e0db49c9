package textrel

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/vocab"
)

// corpus3 builds the deterministic three-object corpus used across tests:
//
//	o0 at (0,0): {a:1}            |d|=1
//	o1 at (3,4): {a:1, b:2}       |d|=3
//	o2 at (6,8): {b:1, c:1}       |d|=2
//
// cf: a=2 b=3 c=1, |C|=6; df: a=2 b=2 c=1, N=3.
func corpus3(t testing.TB) (*dataset.Dataset, [3]vocab.TermID) {
	t.Helper()
	v := vocab.New()
	a, b, c := v.Add("a"), v.Add("b"), v.Add("c")
	objs := []dataset.Object{
		{ID: 0, Loc: geo.Point{X: 0, Y: 0}, Doc: vocab.NewDoc(map[vocab.TermID]int32{a: 1})},
		{ID: 1, Loc: geo.Point{X: 3, Y: 4}, Doc: vocab.NewDoc(map[vocab.TermID]int32{a: 1, b: 2})},
		{ID: 2, Loc: geo.Point{X: 6, Y: 8}, Doc: vocab.NewDoc(map[vocab.TermID]int32{b: 1, c: 1})},
	}
	return dataset.Build(objs, v), [3]vocab.TermID{a, b, c}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// ts is TS(od, ud): ud's weight sum in od over ud's normalizer norm.
func ts(s *Scorer, od, ud vocab.Doc, norm float64) float64 {
	return s.Model.Sum(od, ud.Terms()) / norm
}

func TestLMWeightEquation3(t *testing.T) {
	ds, terms := corpus3(t)
	a, b, c := terms[0], terms[1], terms[2]
	lm := NewModelWithLambda(LM, ds, 0.4)

	d1 := ds.Objects[1].Doc // {a:1, b:2}, len 3
	// p̂(a|θd1) = 0.4·(2/6) + 0.6·(1/3): the floor plus the increment
	if got, want := lm.FloorWeight(a), 0.4*(2.0/6); !near(got, want) {
		t.Errorf("FloorWeight(a) = %v, want %v", got, want)
	}
	if got, want := lm.Weight(d1, a), 0.6*(1.0/3); !near(got, want) {
		t.Errorf("Weight(d1,a) = %v, want %v", got, want)
	}
	// p̂(b|θd1) = 0.4·(3/6) + 0.6·(2/3)
	if got, want := lm.Weight(d1, b), 0.6*(2.0/3); !near(got, want) {
		t.Errorf("Weight(d1,b) = %v, want %v", got, want)
	}
	// absent term: no increment, the smoothing floor only
	if got := lm.Weight(d1, c); got != 0 {
		t.Errorf("Weight(d1,c) = %v, want 0", got)
	}
	if got := lm.FloorWeight(c); !near(got, 0.4*(1.0/6)) {
		t.Errorf("FloorWeight(c) = %v", got)
	}
	// The sum is Equation 3's probabilities summed.
	want := 0.4*(2.0/6) + 0.6*(1.0/3) + 0.4*(3.0/6) + 0.6*(2.0/3) + 0.4*(1.0/6)
	if got := lm.Sum(d1, []vocab.TermID{a, b, c}); !near(got, want) {
		t.Errorf("Sum(d1, {a,b,c}) = %v, want %v", got, want)
	}
}

func TestLMMaxWeightIsCorpusMax(t *testing.T) {
	ds, terms := corpus3(t)
	lm := NewModelWithLambda(LM, ds, 0.4)
	for _, tm := range terms {
		want := 0.0
		for _, o := range ds.Objects {
			want = max(want, lm.Weight(o.Doc, tm))
		}
		if got := lm.MaxWeight(tm); got != want {
			t.Errorf("MaxWeight(%d) = %v, corpus max is %v", tm, got, want)
		}
	}
}

func TestLMUnknownTerm(t *testing.T) {
	ds, _ := corpus3(t)
	lm := NewModelWithLambda(LM, ds, 0.4)
	unknown := vocab.TermID(999)
	if got := lm.FloorWeight(unknown); got != 0 {
		t.Errorf("floor of unknown term = %v, want 0", got)
	}
	if got := lm.MaxWeight(unknown); !near(got, 0.6) {
		t.Errorf("MaxWeight of unknown term = %v, want 1−λ", got)
	}
	d := vocab.DocFromTerms([]vocab.TermID{unknown})
	if got := lm.Weight(d, unknown); !near(got, 0.6) {
		t.Errorf("Weight of unknown term in its own doc = %v, want 0.6", got)
	}
}

func TestLMLambdaValidation(t *testing.T) {
	ds, _ := corpus3(t)
	for _, bad := range []float64{-0.1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("lambda %v should panic", bad)
				}
			}()
			NewModelWithLambda(LM, ds, bad)
		}()
	}
}

func TestTFIDF(t *testing.T) {
	ds, terms := corpus3(t)
	a, b, c := terms[0], terms[1], terms[2]
	m := NewModel(TFIDF, ds)

	// idf(a) = ln(3/2), idf(c) = ln(3/1)
	if got := m.stat[a]; !near(got, math.Log(1.5)) {
		t.Errorf("idf(a) = %v", got)
	}
	if got := m.stat[c]; !near(got, math.Log(3)) {
		t.Errorf("idf(c) = %v", got)
	}
	d1 := ds.Objects[1].Doc
	if got, want := m.Weight(d1, b), 2*math.Log(1.5); !near(got, want) {
		t.Errorf("Weight(d1,b) = %v, want %v", got, want)
	}
	if got := m.Weight(d1, c); got != 0 {
		t.Errorf("absent term weight = %v, want 0", got)
	}
	// maxW(b): d1 has tf 2 → 2·ln(1.5), d2 has tf 1 → smaller.
	if got, want := m.MaxWeight(b), 2*math.Log(1.5); !near(got, want) {
		t.Errorf("MaxWeight(b) = %v, want %v", got, want)
	}
	if m.FloorWeight(b) != 0 {
		t.Error("TFIDF floor must be 0")
	}
	// AddWeight: gain idf when absent, 0 when present
	if got := m.AddWeight(d1, c); !near(got, math.Log(3)) {
		t.Errorf("AddWeight absent = %v", got)
	}
	if got := m.AddWeight(d1, b); got != 0 {
		t.Errorf("AddWeight present = %v, want 0", got)
	}
}

func TestKeywordOverlap(t *testing.T) {
	ds, terms := corpus3(t)
	m := NewModel(KO, ds)
	d := ds.Objects[1].Doc // has a, b
	if m.Weight(d, terms[0]) != 1 || m.Weight(d, terms[2]) != 0 {
		t.Error("KO weight must be membership indicator")
	}
	if m.MaxWeight(terms[0]) != 1 || m.FloorWeight(terms[0]) != 0 {
		t.Error("KO max/floor wrong")
	}
	if m.AddWeight(d, terms[2]) != 1 || m.AddWeight(d, terms[0]) != 0 {
		t.Error("KO AddWeight wrong")
	}
}

// Property, all models and five values of λ: 0 ≤ Weight(d,·) ≤ MaxWeight
// for every corpus document, exactly. The maxima are the increments'
// own maxima, formed by the same expression.
func TestWeightBoundsInvariant(t *testing.T) {
	ds := dataset.GenerateFlickr(dataset.DefaultFlickrConfig(500))
	for _, kind := range []MeasureKind{LM, TFIDF, KO, BM25} {
		for _, lambda := range []float64{0.1, DefaultLambda, 0.5, 0.85, 0.99} {
			m := NewModelWithLambda(kind, ds, lambda)
			for _, o := range ds.Objects {
				for _, tm := range o.Doc.Terms() {
					if w, maxW := m.Weight(o.Doc, tm), m.MaxWeight(tm); w < 0 || w > maxW {
						t.Fatalf("%s λ=%v: weight %v outside [0, corpus max %v]", kind, lambda, w, maxW)
					}
				}
			}
		}
	}
}
