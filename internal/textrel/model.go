// Package textrel implements the three text relevance measures of Section 3
// — TF-IDF, Language Model with Jelinek–Mercer smoothing, and Keyword
// Overlap — behind one Model interface, plus the combined spatial-textual
// scorer (Equation 1) and the per-term bound primitives the MIR-tree and
// candidate-selection pruning rely on.
//
// # Unified normalization
//
// Every model exposes Weight(d,t) ≥ 0 (the weight of term t in document d)
// and MaxWeight(t) (the corpus-wide maximum of that weight). The text
// relevance of object o for user u is
//
//	TS(o,u) = Σ_{t ∈ u.d} Weight(o.d,t) / Norm(u),   Norm(u) = Σ_{t ∈ u.d} MaxWeight(t).
//
// For the Language Model this is exactly Equation 4 (Norm = Pmax); for
// Keyword Overlap it is exactly |u.d ∩ o.d| / |u.d|; for TF-IDF it is the
// paper's score normalized into [0,1] the same way.
//
// # Bound primitives
//
// FloorWeight(t) is a lower bound on Weight(d,t) over every document d
// (the smoothing floor λ·tf(t,C)/|C| for LM; zero otherwise). AddWeight(d,t)
// is an upper bound on the weight t attains in d ∪ c for any keyword set c
// containing t with |c| ≥ 1 — the quantity Lemma 3's upper bound needs.
// LM needs it in additive form: adding keywords lengthens d and so lowers
// every other term's share, and the bound adds a per-term gain to the
// current weight instead of substituting a new one (proof sketch on
// TSAddUpperBound).
package textrel

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/vocab"
)

// Model is one text relevance measure over a fixed object corpus.
type Model interface {
	// Name identifies the measure ("LM", "TFIDF", or "KO").
	Name() string
	// Weight returns the weight of term t in document d (≥ 0).
	Weight(d vocab.Doc, t vocab.TermID) float64
	// MaxWeight returns max over corpus documents of Weight(d,t).
	MaxWeight(t vocab.TermID) float64
	// FloorWeight returns min over all possible documents of Weight(d,t).
	FloorWeight(t vocab.TermID) float64
	// AddWeight returns an upper bound on Weight(d∪c, t) − Weight(d, t)
	// for any keyword set c ∋ t added to d.
	AddWeight(d vocab.Doc, t vocab.TermID) float64
	// AdditionMonotone reports whether adding new terms to a document can
	// never decrease the weight of any term. True for TF-IDF and Keyword
	// Overlap; false for the Language Model, whose length normalization
	// dilutes existing weights. Pruning shortcuts of the form "user u
	// qualifies regardless of the chosen keywords" are only sound when
	// this holds.
	AdditionMonotone() bool
}

// MeasureKind selects a text relevance measure by name.
type MeasureKind int

// The three measures evaluated in Section 8, plus BM25 (an extension
// demonstrating the paper's "any text-based relevance measure" claim).
const (
	LM MeasureKind = iota // Language Model, Jelinek–Mercer smoothing (default)
	TFIDF
	KO
	BM25
)

// String implements fmt.Stringer.
func (m MeasureKind) String() string {
	switch m {
	case LM:
		return "LM"
	case TFIDF:
		return "TFIDF"
	case KO:
		return "KO"
	case BM25:
		return "BM25"
	default:
		return fmt.Sprintf("MeasureKind(%d)", int(m))
	}
}

// DefaultLambda is the Jelinek–Mercer smoothing weight. Zhai & Lafferty
// recommend values near 0.4 for short (title-like) queries, which matches
// the short user keyword sets here.
const DefaultLambda = 0.4

// NewModel constructs the measure of the given kind over ds.
func NewModel(kind MeasureKind, ds *dataset.Dataset) Model {
	return NewModelWithLambda(kind, ds, DefaultLambda)
}

// NewModelWithLambda is NewModel with an explicit Jelinek–Mercer λ for
// the Language Model (the other measures ignore it). This is the single
// model-construction path shared by index building and index loading, so
// a loaded model is bit-for-bit the model its index was built with.
func NewModelWithLambda(kind MeasureKind, ds *dataset.Dataset, lambda float64) Model {
	switch kind {
	case LM:
		return NewLanguageModel(ds, lambda)
	case TFIDF:
		return NewTFIDF(ds)
	case KO:
		return NewKeywordOverlap(ds)
	case BM25:
		return NewBM25(ds)
	default:
		panic(fmt.Sprintf("textrel: unknown measure %d", int(kind)))
	}
}

// ---------------------------------------------------------------- Language Model

// LanguageModel implements Equation 3: the Jelinek–Mercer smoothed maximum
// likelihood estimate p̂(t|θd) = (1−λ)·tf(t,d)/|d| + λ·tf(t,C)/|C|.
type LanguageModel struct {
	lambda float64
	floor  []float64 // per term: λ·tf(t,C)/|C|
	maxW   []float64 // per term: max over corpus docs of p̂(t|θd)
}

// NewLanguageModel builds the model from the dataset's corpus statistics,
// precomputing per-term floors and corpus maxima in one pass over O.
func NewLanguageModel(ds *dataset.Dataset, lambda float64) *LanguageModel {
	if lambda < 0 || lambda > 1 {
		panic("textrel: lambda must be in [0,1]")
	}
	n := ds.Vocab.Size()
	m := &LanguageModel{
		lambda: lambda,
		floor:  make([]float64, n),
		maxW:   make([]float64, n),
	}
	totalC := float64(ds.Stats.TotalTerms)
	for t := 0; t < n; t++ {
		if totalC > 0 {
			m.floor[t] = lambda * float64(ds.Stats.CollectionFreq[t]) / totalC
		}
		m.maxW[t] = m.floor[t]
	}
	// corpus maxima of the ML component
	for _, o := range ds.Objects {
		if o.Doc.Len() == 0 {
			continue
		}
		invLen := 1.0 / float64(o.Doc.Len())
		o.Doc.ForEach(func(t vocab.TermID, f int32) {
			w := (1-lambda)*float64(f)*invLen + m.floor[t]
			if w > m.maxW[t] {
				m.maxW[t] = w
			}
		})
	}
	return m
}

// Name implements Model.
func (m *LanguageModel) Name() string { return "LM" }

// Weight implements Model (Equation 3). Terms outside the corpus vocabulary
// have zero collection frequency and therefore only their ML component.
func (m *LanguageModel) Weight(d vocab.Doc, t vocab.TermID) float64 {
	w := m.floorOf(t)
	if f := d.Freq(t); f > 0 && d.Len() > 0 {
		w += (1 - m.lambda) * float64(f) / float64(d.Len())
	}
	return w
}

// MaxWeight implements Model.
func (m *LanguageModel) MaxWeight(t vocab.TermID) float64 {
	if i := int(t); i >= 0 && i < len(m.maxW) {
		return m.maxW[i]
	}
	// Unknown term: the best any (hypothetical single-term) document does.
	return 1 - m.lambda
}

// FloorWeight implements Model.
func (m *LanguageModel) FloorWeight(t vocab.TermID) float64 { return m.floorOf(t) }

func (m *LanguageModel) floorOf(t vocab.TermID) float64 {
	if i := int(t); i >= 0 && i < len(m.floor) {
		return m.floor[i]
	}
	return 0
}

// AddWeight implements Model: adding t (frequency 1) to d lengthens it to
// at least |d|+1, so the ML component gained is at most (1−λ)/(|d|+1).
// Combined with the (f+1)/(L+s) ≤ f/L + 1/(L+1) inequality this dominates
// the true gain for every added keyword set containing t (proof sketch on
// TSAddUpperBound).
func (m *LanguageModel) AddWeight(d vocab.Doc, t vocab.TermID) float64 {
	return (1 - m.lambda) / float64(d.Len()+1)
}

// AdditionMonotone implements Model: LM length normalization dilutes
// existing term weights when the document grows.
func (m *LanguageModel) AdditionMonotone() bool { return false }

// docTS computes Σ_{t ∈ ud} Weight(od, t) with a merge join over the two
// sorted term lists — the devirtualized fast path of Scorer.TS. Each
// term's weight is formed by exactly the floating-point operations of
// Weight, accumulated in the same (ascending-term) order, so the sum is
// bit-for-bit identical to the generic interface loop.
func (m *LanguageModel) docTS(od, ud vocab.Doc) float64 {
	udTerms := ud.Terms()
	odTerms, odFreqs := od.Terms(), od.Freqs()
	total := 0.0
	j := 0
	for _, t := range udTerms {
		for j < len(odTerms) && odTerms[j] < t {
			j++
		}
		w := m.floorOf(t)
		if j < len(odTerms) && odTerms[j] == t {
			if f := odFreqs[j]; f > 0 && od.Len() > 0 {
				w += (1 - m.lambda) * float64(f) / float64(od.Len())
			}
		}
		total += w
	}
	return total
}

// ---------------------------------------------------------------- TF-IDF

// TFIDFModel weighs a term as tf(t,d) · idf(t,O) with
// idf = log(|O| / df(t)). Scores are normalized by Norm(u) like the other
// measures, keeping TS within [0,1] for corpus documents.
type TFIDFModel struct {
	idf  []float64
	maxW []float64 // maxtf(t) · idf(t)
}

// NewTFIDF builds the model from corpus statistics.
func NewTFIDF(ds *dataset.Dataset) *TFIDFModel {
	n := ds.Vocab.Size()
	m := &TFIDFModel{idf: make([]float64, n), maxW: make([]float64, n)}
	numDocs := float64(ds.Stats.NumDocs)
	for t := 0; t < n; t++ {
		if df := ds.Stats.DocFreq[t]; df > 0 {
			m.idf[t] = math.Log(numDocs / float64(df))
		}
	}
	for _, o := range ds.Objects {
		o.Doc.ForEach(func(t vocab.TermID, f int32) {
			if w := float64(f) * m.idf[t]; w > m.maxW[t] {
				m.maxW[t] = w
			}
		})
	}
	return m
}

// Name implements Model.
func (m *TFIDFModel) Name() string { return "TFIDF" }

// IDF returns idf(t); zero for terms absent from the corpus.
func (m *TFIDFModel) IDF(t vocab.TermID) float64 {
	if i := int(t); i >= 0 && i < len(m.idf) {
		return m.idf[i]
	}
	return 0
}

// Weight implements Model.
func (m *TFIDFModel) Weight(d vocab.Doc, t vocab.TermID) float64 {
	return float64(d.Freq(t)) * m.IDF(t)
}

// MaxWeight implements Model.
func (m *TFIDFModel) MaxWeight(t vocab.TermID) float64 {
	if i := int(t); i >= 0 && i < len(m.maxW) {
		return m.maxW[i]
	}
	return 0
}

// FloorWeight implements Model: a document may lack t entirely.
func (m *TFIDFModel) FloorWeight(vocab.TermID) float64 { return 0 }

// AddWeight implements Model: the added keyword appears with frequency 1
// and TF-IDF weights are independent across terms, so the gain is exactly
// idf(t) when t was absent (and zero extra when present).
func (m *TFIDFModel) AddWeight(d vocab.Doc, t vocab.TermID) float64 {
	if d.Has(t) {
		return 0
	}
	return m.IDF(t)
}

// AdditionMonotone implements Model: TF-IDF weights are independent
// across terms, so additions never reduce existing weights.
func (m *TFIDFModel) AdditionMonotone() bool { return true }

// docTS is the merge-join fast path of Scorer.TS (see LanguageModel.docTS
// for the bit-identity argument).
func (m *TFIDFModel) docTS(od, ud vocab.Doc) float64 {
	udTerms := ud.Terms()
	odTerms, odFreqs := od.Terms(), od.Freqs()
	total := 0.0
	j := 0
	for _, t := range udTerms {
		for j < len(odTerms) && odTerms[j] < t {
			j++
		}
		var f int32
		if j < len(odTerms) && odTerms[j] == t {
			f = odFreqs[j]
		}
		total += float64(f) * m.IDF(t)
	}
	return total
}

// ---------------------------------------------------------------- Keyword Overlap

// KeywordOverlapModel scores TS(o,u) = |u.d ∩ o.d| / |u.d|: each shared
// term weighs 1, so with Norm(u) = |u.d| the unified framework reproduces
// the measure exactly.
type KeywordOverlapModel struct{}

// NewKeywordOverlap returns the (stateless) keyword overlap measure.
func NewKeywordOverlap(*dataset.Dataset) *KeywordOverlapModel {
	return &KeywordOverlapModel{}
}

// Name implements Model.
func (*KeywordOverlapModel) Name() string { return "KO" }

// Weight implements Model.
func (*KeywordOverlapModel) Weight(d vocab.Doc, t vocab.TermID) float64 {
	if d.Has(t) {
		return 1
	}
	return 0
}

// MaxWeight implements Model.
func (*KeywordOverlapModel) MaxWeight(vocab.TermID) float64 { return 1 }

// FloorWeight implements Model.
func (*KeywordOverlapModel) FloorWeight(vocab.TermID) float64 { return 0 }

// AddWeight implements Model.
func (m *KeywordOverlapModel) AddWeight(d vocab.Doc, t vocab.TermID) float64 {
	if d.Has(t) {
		return 0
	}
	return 1
}

// AdditionMonotone implements Model: membership of existing terms is
// unaffected by additions.
func (*KeywordOverlapModel) AdditionMonotone() bool { return true }

// docTS is the merge-join fast path of Scorer.TS (see LanguageModel.docTS
// for the bit-identity argument).
func (*KeywordOverlapModel) docTS(od, ud vocab.Doc) float64 {
	udTerms := ud.Terms()
	odTerms := od.Terms()
	total := 0.0
	j := 0
	for _, t := range udTerms {
		for j < len(odTerms) && odTerms[j] < t {
			j++
		}
		var w float64
		if j < len(odTerms) && odTerms[j] == t {
			w = 1
		}
		total += w
	}
	return total
}
