package textrel

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/vocab"
)

func TestBM25WeightFormula(t *testing.T) {
	ds, terms := corpus3(t)
	a, b := terms[0], terms[1]
	m := NewModel(BM25, ds)

	// corpus: |C|=6 tokens over 3 docs → avgdl = 2
	// idf(a) = ln(1 + (3−2+0.5)/(2+0.5)) = ln(1.6)
	if got, want := m.stat[a], math.Log(1.6); !near(got, want) {
		t.Errorf("idf(a) = %v, want %v", got, want)
	}
	d1 := ds.Objects[1].Doc // {a:1, b:2}, len 3
	// Weight(d1,b): tf=2, dl=3, K = 1.2·(0.25 + 0.75·1.5) = 1.65
	idfB := math.Log(1 + (3-2+0.5)/(2+0.5))
	want := idfB * 2.2 * 2 / (2 + 1.2*(1-0.75+0.75*1.5))
	if got := m.Weight(d1, b); !near(got, want) {
		t.Errorf("Weight(d1,b) = %v, want %v", got, want)
	}
	// absent term scores zero
	if got := m.Weight(d1, terms[2]); got != 0 {
		t.Errorf("absent term weight = %v", got)
	}
	if m.FloorWeight(a) != 0 {
		t.Error("BM25 floor must be 0")
	}
}

func TestBM25MaxWeightIsCorpusMax(t *testing.T) {
	ds := dataset.GenerateFlickr(dataset.DefaultFlickrConfig(400))
	m := NewModel(BM25, ds)
	maxSeen := make(map[vocab.TermID]float64)
	for _, o := range ds.Objects {
		for _, tm := range o.Doc.Terms() {
			if w := m.Weight(o.Doc, tm); w > maxSeen[tm] {
				maxSeen[tm] = w
			}
		}
	}
	for tm, want := range maxSeen {
		if got := m.MaxWeight(tm); !near(got, want) {
			t.Fatalf("MaxWeight(%d) = %v, corpus max %v", tm, got, want)
		}
	}
}

func TestBM25SaturationAndLengthNormalization(t *testing.T) {
	ds, terms := corpus3(t)
	m := NewModel(BM25, ds)
	a := terms[0]
	// more occurrences of the same term saturate, not explode
	d1 := vocab.NewDoc(map[vocab.TermID]int32{a: 1})
	d5 := vocab.NewDoc(map[vocab.TermID]int32{a: 5})
	w1, w5 := m.Weight(d1, a), m.Weight(d5, a)
	if w5 <= w1 {
		t.Error("more occurrences should score higher")
	}
	if w5 >= 5*w1 {
		t.Error("BM25 must saturate sublinearly")
	}
	// same tf in a longer document scores lower
	long := vocab.NewDoc(map[vocab.TermID]int32{a: 1, terms[1]: 9})
	if m.Weight(long, a) >= w1 {
		t.Error("longer document should dilute the weight")
	}
}

func TestBM25UnknownTerm(t *testing.T) {
	ds, _ := corpus3(t)
	m := NewModel(BM25, ds)
	unknown := vocab.TermID(4242)
	d := vocab.DocFromTerms([]vocab.TermID{unknown})
	if m.Weight(d, unknown) != 0 || m.MaxWeight(unknown) != 0 || m.FloorWeight(unknown) != 0 {
		t.Error("out-of-corpus term must score zero")
	}
}

// The AddWeight dominance property — the pruning soundness requirement —
// holds for BM25 exactly as for the paper's three measures.
func TestBM25AddUpperBoundDominates(t *testing.T) {
	ds := dataset.GenerateFlickr(dataset.DefaultFlickrConfig(400))
	us := dataset.GenerateUsers(ds, dataset.UserConfig{NumUsers: 30, UL: 4, UW: 20, Area: 10, Seed: 5})
	checkAddUpperBound(t, NewScorer(ds, BM25, 0.5), ds, us, rand.New(rand.NewSource(17)))
}

func TestBM25NotAdditionMonotone(t *testing.T) {
	ds, terms := corpus3(t)
	m := NewModel(BM25, ds)
	if m.AdditionMonotone() {
		t.Fatal("BM25 must report non-monotone additions")
	}
	// demonstrate the dilution AdditionMonotone warns about
	d := vocab.DocFromTerms([]vocab.TermID{terms[0]})
	grown := d.MergeTerms([]vocab.TermID{terms[1], terms[2]})
	if m.Weight(grown, terms[0]) >= m.Weight(d, terms[0]) {
		t.Error("adding keywords should dilute the existing term's weight")
	}
}

func TestBM25EmptyCorpus(t *testing.T) {
	ds := dataset.Build(nil, vocab.New())
	m := NewModel(BM25, ds)
	if m.avgdl != 1 {
		t.Errorf("empty-corpus avgdl fallback = %v", m.avgdl)
	}
}
