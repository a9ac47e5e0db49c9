package textrel

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/vocab"
)

// TestFrozenModelBitEquality: a model rebuilt from corpus stats plus a
// MaxWeights dump — without the objects — must agree bit-for-bit with
// the model the full constructor builds, for every measure. This is the
// contract shard builds rely on for byte-identical scoring.
func TestFrozenModelBitEquality(t *testing.T) {
	ds := dataset.GenerateFlickr(dataset.DefaultFlickrConfig(300))
	n := ds.Vocab.Size()

	for _, kind := range []MeasureKind{LM, TFIDF, KO, BM25} {
		full := NewModelWithLambda(kind, ds, DefaultLambda)
		maxW := MaxWeights(full, n)
		froz, err := NewModelFrozen(kind, ds.Stats, DefaultLambda, maxW)
		if err != nil {
			t.Fatalf("%v: NewModelFrozen: %v", kind, err)
		}
		if !reflect.DeepEqual(froz, full) {
			t.Fatalf("%v: frozen model %+v, scanned %+v", kind, froz, full)
		}
		// Per-term state, including out-of-range and reserved-negative ids.
		probes := []vocab.TermID{-1, -7, vocab.TermID(n), vocab.TermID(n + 5)}
		for i := 0; i < n; i++ {
			probes = append(probes, vocab.TermID(i))
		}
		for _, tid := range probes {
			if got, want := froz.MaxWeight(tid), full.MaxWeight(tid); got != want {
				t.Fatalf("%v: MaxWeight(%d) = %v, want %v", kind, tid, got, want)
			}
			if got, want := froz.FloorWeight(tid), full.FloorWeight(tid); got != want {
				t.Fatalf("%v: FloorWeight(%d) = %v, want %v", kind, tid, got, want)
			}
		}
		// Document-level scoring over real corpus docs.
		for _, o := range ds.Objects[:64] {
			for _, tid := range probes[:16] {
				if got, want := froz.Weight(o.Doc, tid), full.Weight(o.Doc, tid); got != want {
					t.Fatalf("%v: Weight(doc %d, %d) = %v, want %v", kind, o.ID, tid, got, want)
				}
				if got, want := froz.AddWeight(o.Doc, tid), full.AddWeight(o.Doc, tid); got != want {
					t.Fatalf("%v: AddWeight(doc %d, %d) = %v, want %v", kind, o.ID, tid, got, want)
				}
			}
		}
	}
}

func TestFrozenModelRejectsBadInput(t *testing.T) {
	ds := dataset.GenerateFlickr(dataset.DefaultFlickrConfig(50))
	if _, err := NewModelFrozen(LM, ds.Stats, DefaultLambda, nil); err == nil {
		t.Error("short maxW accepted")
	}
	if _, err := NewModelFrozen(LM, ds.Stats, -0.5, MaxWeights(NewModel(LM, ds), ds.Vocab.Size())); err == nil {
		t.Error("bad lambda accepted")
	}
	if _, err := NewModelFrozen(MeasureKind(99), ds.Stats, DefaultLambda, nil); err == nil {
		t.Error("unknown kind accepted")
	}
	if got := MeasureKind(99).String(); got != "MeasureKind(99)" {
		t.Errorf("unknown kind formats as %q", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewModel with an unknown kind should panic")
			}
		}()
		NewModel(MeasureKind(99), ds)
	}()
	uneven := ds.Stats
	uneven.DocFreq = uneven.DocFreq[:1]
	if _, err := NewModelFrozen(KO, uneven, DefaultLambda, nil); err == nil {
		t.Error("statistics of unequal lengths accepted")
	}
	// KO is stateless: nil maxW is fine.
	if _, err := NewModelFrozen(KO, ds.Stats, DefaultLambda, nil); err != nil {
		t.Errorf("KO frozen: %v", err)
	}
}

func TestFrozenModelEmptyCorpusStats(t *testing.T) {
	ds := dataset.Build(nil, vocab.New())
	for _, kind := range []MeasureKind{LM, TFIDF, KO, BM25} {
		full := NewModelWithLambda(kind, ds, DefaultLambda)
		froz, err := NewModelFrozen(kind, ds.Stats, DefaultLambda, MaxWeights(full, 0))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if got, want := froz.MaxWeight(0), full.MaxWeight(0); got != want || math.IsNaN(got) {
			t.Fatalf("%v: empty-corpus MaxWeight %v vs %v", kind, got, want)
		}
	}
}
