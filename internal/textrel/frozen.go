package textrel

import (
	"fmt"
	"slices"

	"repro/internal/dataset"
	"repro/internal/vocab"
)

// MaxWeights dumps the per-term corpus maxima of a model for terms
// 0..n-1 — the only model state that requires a pass over the full
// object corpus. Together with the corpus statistics it freezes a model
// so NewModelFrozen can rebuild it bit-for-bit without the objects.
func MaxWeights(m Model, n int) []float64 {
	out := make([]float64, n)
	for t := 0; t < n; t++ {
		out[t] = m.MaxWeight(vocab.TermID(t))
	}
	return out
}

// NewModelFrozen makes the measure of the given kind from corpus
// statistics plus given per-term maxima, without scanning any objects.
//
// Every model's state splits into two parts: values derived purely from
// the statistics (LM smoothing floors, TF-IDF/BM25 idf, BM25 avgdl) and
// the per-term corpus maxima, which the ordinary constructors compute
// with a pass over every object document. A shard index holds only a
// subset of the objects and a loaded index none of its build-time ones,
// yet both must score under the build-time corpus context, so the maxima
// are given (a MaxWeights dump) while the statistics-derived part comes
// from the same code the ordinary constructors run — making the frozen
// model bit-for-bit identical to the model a whole-corpus build produces.
//
// maxW must have one entry per term of st; KO is stateless and ignores
// it.
func NewModelFrozen(kind MeasureKind, st dataset.CorpusStats, lambda float64, maxW []float64) (Model, error) {
	if n := len(st.CollectionFreq); len(st.DocFreq) != n || (kind != KO && len(maxW) != n) {
		return nil, fmt.Errorf("textrel: frozen context has %d collection and %d document frequencies and %d maxima",
			n, len(st.DocFreq), len(maxW))
	}
	switch kind {
	case LM:
		if lambda < 0 || lambda > 1 {
			return nil, fmt.Errorf("textrel: lambda must be in [0,1], got %v", lambda)
		}
		m := newLanguageModel(st, lambda)
		m.maxW = slices.Clone(maxW)
		return m, nil
	case TFIDF:
		m := newTFIDF(st)
		m.maxW = slices.Clone(maxW)
		return m, nil
	case KO:
		return &KeywordOverlapModel{}, nil
	case BM25:
		m := newBM25(st)
		m.maxW = slices.Clone(maxW)
		return m, nil
	default:
		return nil, fmt.Errorf("textrel: unknown measure %d", int(kind))
	}
}
