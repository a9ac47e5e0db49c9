package textrel

import (
	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/vocab"
)

// BoundSlack is how far below a threshold a pruning test still keeps a
// bound. A bound sums the same weights as the exact score it bounds, but
// in its own order, so it can round below that score — and an object tied
// with the k-th best, or an ulp above it, would be cut off. Scores lie in
// [0, 1]: the slack is far above any such rounding and far below any
// score gap a pruning decision turns on.
const BoundSlack = 1e-9

// Scorer evaluates the combined spatial-textual score of Equation 1:
//
//	STS(o,u) = α·SS(o.l,u.l) + (1−α)·TS(o.d,u.d)
//
// with SS(a,b) = 1 − dist(a,b)/dmax (Equation 2) and TS per the unified
// model normalization described in the package comment.
type Scorer struct {
	Model Model
	Alpha float64
	DMax  float64
}

// NewScorer builds a scorer over ds with the given measure and preference
// parameter α ∈ [0,1]. extra rectangles (user MBR, candidate locations)
// extend the dmax normalization so SS never goes negative.
func NewScorer(ds *dataset.Dataset, kind MeasureKind, alpha float64, extra ...geo.Rect) *Scorer {
	if alpha < 0 || alpha > 1 {
		panic("textrel: alpha must be in [0,1]")
	}
	return &Scorer{Model: NewModel(kind, ds), Alpha: alpha, DMax: ds.DMax(extra...)}
}

// SS returns the spatial proximity of two points (Equation 2), clamped at
// zero for points beyond dmax.
func (s *Scorer) SS(a, b geo.Point) float64 {
	v := 1 - a.Dist(b)/s.DMax
	if v < 0 {
		return 0
	}
	return v
}

// SSMin returns the *smallest possible* spatial proximity between any point
// of rectangle a and any point of b — derived from the maximum distance.
// This is the MaxSS-from-MaxDist quantity of the paper's lower bounds.
func (s *Scorer) SSMin(a, b geo.Rect) float64 {
	v := 1 - a.MaxDist(b)/s.DMax
	if v < 0 {
		return 0
	}
	return v
}

// SSMax returns the *largest possible* spatial proximity between any point
// of rectangle a and any point of b — derived from the minimum distance.
// This is the MinSS-from-MinDist quantity of the paper's upper bounds.
func (s *Scorer) SSMax(a, b geo.Rect) float64 {
	v := 1 - a.MinDist(b)/s.DMax
	if v < 0 {
		return 0
	}
	return v
}

// Norm returns Norm(d) = Σ_{t∈d} MaxWeight(t), the user-side normalizer
// (Pmax in Equation 4 when the model is LM).
func (s *Scorer) Norm(d vocab.Doc) float64 {
	total := 0.0
	for _, t := range d.Terms() {
		total += s.Model.MaxWeight(t)
	}
	if total == 0 {
		return 1 // user with only out-of-corpus terms: avoid division by zero
	}
	return total
}

// TS returns the normalized text relevance of object document od for a user
// document ud whose precomputed normalizer is norm (use Norm(ud)). The
// built-in measures take a devirtualized merge-join path — one linear pass
// over the two sorted term lists instead of an interface call plus binary
// search per user term — that performs the exact floating-point operations
// of the generic loop in the same order, so scores are bit-identical.
func (s *Scorer) TS(od, ud vocab.Doc, norm float64) float64 {
	var total float64
	switch m := s.Model.(type) {
	case *LanguageModel:
		total = m.docTS(od, ud)
	case *TFIDFModel:
		total = m.docTS(od, ud)
	case *KeywordOverlapModel:
		total = m.docTS(od, ud)
	default:
		for _, t := range ud.Terms() {
			total += s.Model.Weight(od, t)
		}
	}
	return total / norm
}

// STS returns the combined score of Equation 1 for an object at oLoc with
// document oDoc against a user at uLoc with document uDoc and normalizer
// norm.
func (s *Scorer) STS(oLoc geo.Point, oDoc vocab.Doc, uLoc geo.Point, uDoc vocab.Doc, norm float64) float64 {
	return s.Alpha*s.SS(oLoc, uLoc) + (1-s.Alpha)*s.TS(oDoc, uDoc, norm)
}

// UserNorms precomputes Norm(u) for every user.
func (s *Scorer) UserNorms(users []dataset.User) []float64 {
	out := make([]float64, len(users))
	for i := range users {
		out[i] = s.Norm(users[i].Doc)
	}
	return out
}
