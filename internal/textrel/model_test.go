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
	// p̂(a|θd1) = 0.6·(1/3) + 0.4·(2/6) = 0.2 + 0.1333…
	if got, want := lm.Weight(d1, a), 0.6*(1.0/3)+0.4*(2.0/6); !near(got, want) {
		t.Errorf("Weight(d1,a) = %v, want %v", got, want)
	}
	// p̂(b|θd1) = 0.6·(2/3) + 0.4·(3/6)
	if got, want := lm.Weight(d1, b), 0.6*(2.0/3)+0.4*(3.0/6); !near(got, want) {
		t.Errorf("Weight(d1,b) = %v, want %v", got, want)
	}
	// absent term: smoothing floor only
	if got, want := lm.Weight(d1, c), 0.4*(1.0/6); !near(got, want) {
		t.Errorf("Weight(d1,c) = %v, want floor %v", got, want)
	}
	if got := lm.FloorWeight(c); !near(got, 0.4*(1.0/6)) {
		t.Errorf("FloorWeight(c) = %v", got)
	}
}

func TestLMMaxWeightIsCorpusMax(t *testing.T) {
	ds, terms := corpus3(t)
	lm := NewModelWithLambda(LM, ds, 0.4)
	for _, tm := range terms {
		want := lm.FloorWeight(tm)
		for _, o := range ds.Objects {
			if w := lm.Weight(o.Doc, tm); w > want {
				want = w
			}
		}
		if got := lm.MaxWeight(tm); !near(got, want) {
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

// Property, all models: FloorWeight ≤ Weight(d,·) ≤ MaxWeight for every
// corpus document, exactly. The LM maxima alone are formed by another
// expression than the weights (NewModelWithLambda), (1−λ)·f·(1/|d|) +
// floor against floor + (1−λ)·f/|d|: the two products are within 3u of
// each other (u = 2⁻⁵³; one rounding of 1/|d| and one of each product),
// and the sums add a rounding each, so a weight can exceed its maximum by
// up to 4 floats. Norm is the maxima's one use; no bound rests on them.
func TestWeightBoundsInvariant(t *testing.T) {
	ds := dataset.GenerateFlickr(dataset.DefaultFlickrConfig(500))
	for _, kind := range []MeasureKind{LM, TFIDF, KO, BM25} {
		m := NewModel(kind, ds)
		for _, o := range ds.Objects {
			for _, tm := range o.Doc.Terms() {
				w, maxW := m.Weight(o.Doc, tm), m.MaxWeight(tm)
				if w < m.FloorWeight(tm) {
					t.Fatalf("%s: weight %v below floor %v", kind, w, m.FloorWeight(tm))
				}
				if kind == LM {
					maxW = math.Float64frombits(math.Float64bits(maxW) + 4)
				}
				if w > maxW {
					t.Fatalf("%s: weight %v above corpus max %v", kind, w, m.MaxWeight(tm))
				}
			}
		}
	}
}
