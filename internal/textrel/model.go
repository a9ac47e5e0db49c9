// Package textrel implements the text relevance measures of Section 3 —
// the Language Model with Jelinek–Mercer smoothing, TF-IDF and Keyword
// Overlap, plus Okapi BM25 — as one Model, the combined spatial-textual
// score of Equation 1 as one Scorer.Combine, and the per-term bound
// primitives the MIR-tree and candidate-selection pruning rely on.
//
// # The four weights
//
// A measure gives each term t a floor and, in a document d of |d| term
// occurrences that holds t f > 0 times, an increment (Model.weight):
//
//	       floor(t)        increment δ_t(d)
//	LM     λ·tf(t,C)/|C|   (1−λ)·f/|d|          (their sum is Equation 3)
//	TFIDF  0               f·idf(t)             idf(t) = ln(|O|/df(t))
//	KO     0               1
//	BM25   0               idf(t)·(k1+1)·f / (f + k1·(1−b + b·|d|/avgdl))
//	                                            idf(t) = ln(1 + (|O|−df(t)+0.5)/(df(t)+0.5))
//
// For the Language Model this is Zhai & Lafferty's rank-equivalent form: a
// document that lacks t adds only the floor, which no index stores. BM25
// goes beyond the paper's three measures; it demonstrates the claim that
// its approaches apply to "any text-based relevance measure".
//
// # Unified normalization
//
// Weight(d,t) ≥ 0 is t's increment in d (zero when d lacks t) and
// MaxWeight(t) its maximum over the corpus documents. The text relevance
// of object o for user u is
//
//	TS(o,u) = Sum(o.d, u.d) / Norm(u),   Sum(d, T) = F(T) + Σ_{t ∈ T∩d} Weight(d,t),
//	F(T) = Σ_{t ∈ T} FloorWeight(t),     Norm(u) = F(u.d) + Σ_{t ∈ u.d} MaxWeight(t),
//
// each one fold from zero in ascending term order, the floors first
// (Floor). For the Language Model this is exactly Equation 4 (Norm =
// Pmax); for Keyword Overlap it is exactly |u.d ∩ o.d| / |u.d|; TF-IDF and
// BM25 are normalized into [0,1] the same way, and TS ≤ 1 holds as the
// folds round. Every score and every bound is Scorer.Combine over a
// spatial proximity, a weight sum and a normalizer.
//
// # Bound primitives
//
// AddWeight(d,t) is an upper bound on what t's increment can gain when any
// keyword set c ∋ t is added to d — the quantity Lemma 3's upper bound
// needs, in the additive form that stays sound for LM, where adding
// keywords lowers every other term's share (proof sketch on
// TSAddUpperBound).
//
// Every bound is sound by construction, with no slack: it evaluates the
// exact score's expression, Combine over Model.Sum's fold, on operands
// that bound the exact ones, and round-to-nearest is monotone — a larger
// operand, or one more nonnegative term, never rounds lower. Distances are
// monotone too (package geo), and posting sums start at the floors of the
// wanted terms and add one stored increment a posting, as Model.Sum does.
// One operand rounds otherwise and carries a derived guard: the gains UBL
// adds after the sum (TSAddUpperBound).
package textrel

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/dataset"
	"repro/internal/vocab"
)

// MeasureKind selects a text relevance measure by name.
type MeasureKind int

// The three measures evaluated in Section 8, plus BM25.
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

// BM25 parameters (standard Robertson–Spärck Jones defaults).
const (
	// BM25K1 controls term-frequency saturation.
	BM25K1 = 1.2
	// BM25B controls document-length normalization.
	BM25B = 0.75
)

// Model is one text relevance measure under a fixed corpus context.
type Model struct {
	kind MeasureKind
	// stat is the per-term statistic: LM's smoothing floor, TF-IDF's or
	// BM25's idf, which their increments read; KO has none.
	stat []float64
	// maxW is the per-term corpus maximum of the increment; KO has none.
	maxW   []float64
	lambda float64 // LM's Jelinek–Mercer λ
	avgdl  float64 // BM25's average document length
}

// NewModel constructs the measure of the given kind over ds.
func NewModel(kind MeasureKind, ds *dataset.Dataset) *Model {
	return NewModelWithLambda(kind, ds, DefaultLambda)
}

// NewModelWithLambda is NewModel with an explicit Jelinek–Mercer λ for
// the Language Model (the other measures ignore it): the statistics-derived
// part, then the per-term corpus maxima in one pass over ds's objects.
// Index building makes its model here; loaded, compacted and shard indexes
// carry it or make it with NewModelFrozen, which runs the same
// statistics-derived code, so their models are bit-for-bit the built one.
func NewModelWithLambda(kind MeasureKind, ds *dataset.Dataset, lambda float64) *Model {
	m, err := newModel(kind, ds.Stats, lambda)
	if err != nil {
		panic(err)
	}
	if kind == KO {
		return m // every KO weight is at most 1, what MaxWeight says without maxima
	}
	m.maxW = make([]float64, len(m.stat))
	for _, o := range ds.Objects {
		dl := o.Doc.Len()
		o.Doc.ForEach(func(t vocab.TermID, f int32) {
			if w := m.weight(t, f, dl); w > m.maxW[t] {
				m.maxW[t] = w
			}
		})
	}
	return m
}

// NewModelFrozen makes the measure of the given kind from corpus
// statistics plus given per-term maxima, without scanning any objects.
//
// A model splits into the values derived purely from the statistics (LM
// smoothing floors, TF-IDF/BM25 idf, BM25 avgdl) and the per-term corpus
// maxima, which NewModelWithLambda computes with a pass over every object
// document. A shard index holds only a subset of the objects and a loaded
// index none of its build-time ones, yet both must score under the
// build-time corpus context, so the maxima are given (a MaxWeights dump)
// while the statistics-derived part comes from the code NewModelWithLambda
// runs — making the frozen model bit-for-bit the one a whole-corpus build
// produces.
//
// maxW must have one entry per term of st; KO has no maxima and ignores
// it.
func NewModelFrozen(kind MeasureKind, st dataset.CorpusStats, lambda float64, maxW []float64) (*Model, error) {
	if n := len(st.CollectionFreq); len(st.DocFreq) != n || (kind != KO && len(maxW) != n) {
		return nil, fmt.Errorf("textrel: frozen context has %d collection and %d document frequencies and %d maxima",
			n, len(st.DocFreq), len(maxW))
	}
	m, err := newModel(kind, st, lambda)
	if err != nil {
		return nil, err
	}
	if kind != KO {
		m.maxW = slices.Clone(maxW)
	}
	return m, nil
}

// newModel is the statistics-derived part of a model, which every
// constructor shares: the per-term statistic and the measure's constants.
// The caller sets the maxima.
func newModel(kind MeasureKind, st dataset.CorpusStats, lambda float64) (*Model, error) {
	m := &Model{kind: kind, lambda: lambda}
	numDocs := float64(st.NumDocs)
	switch kind {
	case LM:
		if lambda < 0 || lambda > 1 {
			return nil, fmt.Errorf("textrel: lambda must be in [0,1], got %v", lambda)
		}
		m.stat = make([]float64, len(st.CollectionFreq))
		if totalC := float64(st.TotalTerms); totalC > 0 {
			for t, cf := range st.CollectionFreq {
				m.stat[t] = lambda * float64(cf) / totalC
			}
		}
	case TFIDF:
		m.stat = make([]float64, len(st.DocFreq))
		for t, df := range st.DocFreq {
			if df > 0 {
				m.stat[t] = math.Log(numDocs / float64(df))
			}
		}
	case KO:
	case BM25:
		if numDocs > 0 {
			m.avgdl = float64(st.TotalTerms) / numDocs
		}
		if m.avgdl == 0 {
			m.avgdl = 1
		}
		m.stat = make([]float64, len(st.DocFreq))
		for t, df := range st.DocFreq {
			if df > 0 {
				m.stat[t] = math.Log(1 + (numDocs-float64(df)+0.5)/(float64(df)+0.5))
			}
		}
	default:
		return nil, fmt.Errorf("textrel: unknown measure %d", int(kind))
	}
	return m, nil
}

// MaxWeights dumps the per-term corpus maxima of a model for terms
// 0..n-1 — the only model state that requires a pass over the full
// object corpus. Together with the corpus statistics it freezes a model
// so NewModelFrozen can rebuild it bit-for-bit without the objects.
func MaxWeights(m *Model, n int) []float64 {
	out := make([]float64, n)
	for t := 0; t < n; t++ {
		out[t] = m.MaxWeight(vocab.TermID(t))
	}
	return out
}

// weight is the increment of term t occurring f times in a document of dl
// term occurrences, zero when t does not occur: the package comment's
// table. A term outside the corpus has a zero statistic.
//
//maxbr:hotpath
func (m *Model) weight(t vocab.TermID, f int32, dl int64) float64 {
	var s float64
	if i := int(t); i >= 0 && i < len(m.stat) {
		s = m.stat[i]
	}
	if f <= 0 {
		return 0
	}
	switch m.kind {
	case LM:
		return (1 - m.lambda) * float64(f) / float64(dl)
	case TFIDF:
		return float64(f) * s
	case KO:
		return 1
	case BM25:
		tf := float64(f)
		k := float64(BM25K1 * (1 - BM25B + BM25B*float64(dl)/m.avgdl))
		return s * (BM25K1 + 1) * tf / (tf + k)
	}
	panic("textrel: model of an unknown measure")
}

// Floor returns F(terms) = Σ_{t∈terms} FloorWeight(t), added to zero in
// terms' order: where Sum, Scorer.Norm and every posting read start.
func (m *Model) Floor(terms []vocab.TermID) float64 {
	total := 0.0
	for _, t := range terms {
		total += m.FloorWeight(t)
	}
	return total
}

// Sum returns F(terms) + Σ_{t∈terms∩d} Weight(d,t), the increments added
// in terms' order, which must ascend: the numerator of TS over a user's
// terms, and of a lower bound over a super-user's intersection. It is one
// merge join of terms with d's sorted terms.
//
//maxbr:hotpath
func (m *Model) Sum(d vocab.Doc, terms []vocab.TermID) float64 {
	dTerms, dFreqs, dl := d.Terms(), d.Freqs(), d.Len()
	total, j := m.Floor(terms), 0
	for _, t := range terms {
		for j < len(dTerms) && dTerms[j] < t {
			j++
		}
		if j < len(dTerms) && dTerms[j] == t {
			total += m.weight(t, dFreqs[j], dl)
		}
	}
	return total
}

// Weight returns the increment of term t in document d (≥ 0; zero when d
// lacks t).
func (m *Model) Weight(d vocab.Doc, t vocab.TermID) float64 {
	return m.weight(t, d.Freq(t), d.Len())
}

// MaxWeight returns the maximum over corpus documents of Weight(d,t).
func (m *Model) MaxWeight(t vocab.TermID) float64 {
	if i := int(t); i >= 0 && i < len(m.maxW) {
		return m.maxW[i]
	}
	// A term outside the corpus, and every KO term: the best a one-term
	// document does.
	return m.weight(t, 1, 1)
}

// FloorWeight returns the floor of t: LM's smoothing λ·tf(t,C)/|C|, zero
// for the other measures and for a term outside the corpus.
func (m *Model) FloorWeight(t vocab.TermID) float64 {
	if i := int(t); m.kind == LM && i >= 0 && i < len(m.stat) {
		return m.stat[i]
	}
	return 0
}

// AddWeight returns an upper bound on Weight(d∪c, t) − Weight(d, t) for
// any keyword set c ∋ t added to d: at most the increment of t once in a
// document one occurrence longer than d.
//
// For LM that is (1−λ)/(|d|+1); with (f+1)/(L+s) ≤ f/L + 1/(L+1) it
// dominates the true gain for every added keyword set containing t. TF-IDF
// and KO weigh terms independently, so a term d has gains nothing and an
// absent one its weight at frequency 1, exactly. BM25 is decreasing in
// document length (so |c| = 1 is the best case) and concave with zero
// intercept in tf (so increments are subadditive), which makes
// Weight(d,t) + AddWeight(d,t) dominate Weight(d∪c, t). Proof sketch on
// TSAddUpperBound.
func (m *Model) AddWeight(d vocab.Doc, t vocab.TermID) float64 {
	if m.AdditionMonotone() && d.Has(t) {
		return 0
	}
	return m.weight(t, 1, d.Len()+1)
}

// AdditionMonotone reports whether adding new terms to a document can
// never decrease the weight of any term: true for TF-IDF and Keyword
// Overlap, whose weights are independent across terms; false for LM and
// BM25, whose length normalization dilutes existing weights. Pruning
// shortcuts of the form "user u qualifies regardless of the chosen
// keywords" are only sound when this holds.
func (m *Model) AdditionMonotone() bool { return m.kind == TFIDF || m.kind == KO }
