package textrel

import (
	"math"

	"repro/internal/dataset"
	"repro/internal/vocab"
)

// BM25 parameters (standard Robertson–Spärck Jones defaults).
const (
	// BM25K1 controls term-frequency saturation.
	BM25K1 = 1.2
	// BM25B controls document-length normalization.
	BM25B = 0.75
)

// BM25Model is an extension beyond the paper's three measures,
// demonstrating its claim that "our approaches are applicable for any
// text-based relevance measure": Okapi BM25 plugs into the same Model
// interface, including the additive upper bound machinery.
//
//	Weight(d,t) = idf(t) · (k1+1)·tf / (tf + k1·(1−b + b·|d|/avgdl))
//
// with idf(t) = ln(1 + (N − df + 0.5)/(df + 0.5)).
type BM25Model struct {
	idf   []float64
	maxW  []float64
	avgdl float64
}

// NewBM25 builds the model from corpus statistics, then finds the
// per-term corpus maxima in one pass over O.
func NewBM25(ds *dataset.Dataset) *BM25Model {
	m := newBM25(ds.Stats)
	m.maxW = make([]float64, len(m.idf))
	for _, o := range ds.Objects {
		o.Doc.ForEach(func(t vocab.TermID, f int32) {
			if w := m.score(float64(f), float64(o.Doc.Len()), m.idf[t]); w > m.maxW[t] {
				m.maxW[t] = w
			}
		})
	}
	return m
}

// newBM25 is the model's statistics-derived part: the per-term idf and
// the average document length. The caller sets the maxima.
func newBM25(st dataset.CorpusStats) *BM25Model {
	m := &BM25Model{idf: make([]float64, len(st.DocFreq))}
	numDocs := float64(st.NumDocs)
	if numDocs > 0 {
		m.avgdl = float64(st.TotalTerms) / numDocs
	}
	if m.avgdl == 0 {
		m.avgdl = 1
	}
	for t, df := range st.DocFreq {
		if df > 0 {
			m.idf[t] = math.Log(1 + (numDocs-float64(df)+0.5)/(float64(df)+0.5))
		}
	}
	return m
}

// score evaluates the BM25 term formula.
func (m *BM25Model) score(tf, dl, idf float64) float64 {
	if tf <= 0 || idf <= 0 {
		return 0
	}
	k := BM25K1 * (1 - BM25B + BM25B*dl/m.avgdl)
	return idf * (BM25K1 + 1) * tf / (tf + k)
}

// Name implements Model.
func (m *BM25Model) Name() string { return "BM25" }

// IDF returns the BM25 idf of t (zero for out-of-corpus terms).
func (m *BM25Model) IDF(t vocab.TermID) float64 {
	if i := int(t); i >= 0 && i < len(m.idf) {
		return m.idf[i]
	}
	return 0
}

// Weight implements Model.
func (m *BM25Model) Weight(d vocab.Doc, t vocab.TermID) float64 {
	return m.score(float64(d.Freq(t)), float64(d.Len()), m.IDF(t))
}

// MaxWeight implements Model.
func (m *BM25Model) MaxWeight(t vocab.TermID) float64 {
	if i := int(t); i >= 0 && i < len(m.maxW) {
		return m.maxW[i]
	}
	return 0
}

// FloorWeight implements Model: documents lacking t score zero.
func (m *BM25Model) FloorWeight(vocab.TermID) float64 { return 0 }

// AddWeight implements Model. Adding t once to d yields at most
// score(1, |d|+1): BM25 is decreasing in document length (so |c| = 1 is
// the best case) and concave with zero intercept in tf (so increments are
// subadditive), which makes Weight(d,t) + AddWeight(d,t) dominate
// Weight(d∪c, t) for every admissible c ∋ t.
func (m *BM25Model) AddWeight(d vocab.Doc, t vocab.TermID) float64 {
	return m.score(1, float64(d.Len()+1), m.IDF(t))
}

// AdditionMonotone implements Model: like LM, BM25's length normalization
// dilutes existing term weights when the document grows.
func (m *BM25Model) AdditionMonotone() bool { return false }
