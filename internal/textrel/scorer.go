package textrel

import (
	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/vocab"
)

// Scorer evaluates the combined spatial-textual score of Equation 1:
//
//	STS(o,u) = α·SS(o.l,u.l) + (1−α)·TS(o.d,u.d)
//
// with SS(a,b) = 1 − dist(a,b)/dmax (Equation 2) and TS per the unified
// model normalization described in the package comment.
type Scorer struct {
	Model *Model
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
func (s *Scorer) SS(a, b geo.Point) float64 { return s.ss(a.Dist(b)) }

// SSMin returns the *smallest possible* spatial proximity between any point
// of rectangle a and any point of b, from their maximum distance: the
// MaxSS-from-MaxDist quantity of the lower bounds.
func (s *Scorer) SSMin(a, b geo.Rect) float64 { return s.ss(a.MaxDist(b)) }

// SSMax returns the *largest possible* spatial proximity between any point
// of rectangle a and any point of b, from their minimum distance: the
// MinSS-from-MinDist quantity of the upper bounds.
func (s *Scorer) SSMax(a, b geo.Rect) float64 { return s.ss(a.MinDist(b)) }

// ss is Equation 2 at distance d, the one expression of SS, SSMin and SSMax.
func (s *Scorer) ss(d float64) float64 { return max(0, 1-d/s.DMax) }

// Norm returns Norm(d) = F(d) + Σ_{t∈d} MaxWeight(t), the user-side
// normalizer (Pmax in Equation 4 when the model is LM): Model.Sum's fold
// with every increment at its maximum.
func (s *Scorer) Norm(d vocab.Doc) float64 {
	total := s.Model.Floor(d.Terms())
	for _, t := range d.Terms() {
		total += s.Model.MaxWeight(t)
	}
	if total == 0 {
		return 1 // user with only out-of-corpus terms: avoid division by zero
	}
	return total
}

// Combine is Equation 1 over its operands, α·ss + (1−α)·(sum/norm), for a
// spatial proximity ss, a text weight sum (Model.Sum) and a user
// normalizer norm, and the one place α appears. The exact score passes the
// exact operands; a bound passes bounding ones — SSMax or SSMin for ss, a
// node's posting maxima or minima for the sum, a group's MinNorm or
// MaxNorm for norm — and so rounds through the same operations. The
// conversions round each product on its own, so no target fuses one into
// the sum: every score and saved answer rests on the same roundings on
// every GOARCH.
//
//maxbr:hotpath
func (s *Scorer) Combine(ss, sum, norm float64) float64 {
	return float64(s.Alpha*ss) + float64((1-s.Alpha)*(sum/norm))
}

// STS returns the combined score of Equation 1 for an object at oLoc with
// document oDoc against a user at uLoc with document uDoc and normalizer
// norm.
func (s *Scorer) STS(oLoc geo.Point, oDoc vocab.Doc, uLoc geo.Point, uDoc vocab.Doc, norm float64) float64 {
	return s.Combine(s.SS(oLoc, uLoc), s.Model.Sum(oDoc, uDoc.Terms()), norm)
}

// UserNorms precomputes Norm(u) for every user.
func (s *Scorer) UserNorms(users []dataset.User) []float64 {
	out := make([]float64, len(users))
	for i := range users {
		out[i] = s.Norm(users[i].Doc)
	}
	return out
}
