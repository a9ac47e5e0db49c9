package textrel

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/vocab"
)

// CandidateSet is the candidate keyword set W with O(1) membership tests.
type CandidateSet map[vocab.TermID]bool

// NewCandidateSet builds a CandidateSet from a list of keywords.
func NewCandidateSet(terms []vocab.TermID) CandidateSet {
	s := make(CandidateSet, len(terms))
	for _, t := range terms {
		s[t] = true
	}
	return s
}

// TSAddUpperBound returns an upper bound on Sum(ox.d ∪ c, ud) over every
// keyword set c ⊆ W with |c| ≤ ws — the numerator of Lemma 3's quantity,
// in the additive form that stays sound for the Language Model (proof
// sketch below); Combine normalizes it into UBL(ℓ,u) of Section 6.1:
//
//	Sum(ox.d, ud) + Σ_{top-ws gains t ∈ ud∩W} AddWeight(ox.d,t)
//
// Proof sketch. For any admissible c, Weight(ox.d∪c, t) ≤ Weight(ox.d,t) +
// [t∈c]·AddWeight(ox.d,t) for every measure: for TF-IDF and KO weights
// are independent across terms and the gain is exactly AddWeight; for LM,
// adding s ≥ 1 terms yields (1−λ)(f+1)/(L+s) ≤ (1−λ)f/L + (1−λ)/(L+1),
// and terms not in c can only lose weight; for BM25 see AddWeight. Only
// terms in ud∩W contribute gains, and at most ws of them, so the largest
// ws gains dominate.
//
// Guard. The exact score adds each gain inside its term's increment, the
// bound after the sum, which no reordering mends (every LM gain is
// (1−λ)/(|ox.d|+1)). Both fold the same floors F(ud) first; after them the
// score adds up to |ud| increments, the bound up to |ud| increments and
// the gains. A recursive sum of n nonnegative values rounds within (n−1)u
// of its operands' real total, u = 2⁻⁵³ (Higham, Accuracy and Stability of
// Numerical Algorithms, §4.2), and an increment rounds up to twice inside
// (an LM product and quotient) and a gain once. So with n = 2|ud| + the
// gains + 1, the score is < 1 + (2n−g)u times the bound's sum, g ≥ 1 the
// gains, and that sum multiplied by 1 + 2n·2⁻⁵³ (rounded) and stepped up
// one float exceeds the score. With no gain, it is Model.Sum over values
// that bound the score's, and needs no guard.
func (s *Scorer) TSAddUpperBound(oxDoc, ud vocab.Doc, w CandidateSet, ws int) float64 {
	var buf [8]float64 // the gains of a user of up to 8 terms stay off the heap
	gains := buf[:0]
	for _, t := range ud.Terms() {
		if w[t] {
			if g := s.Model.AddWeight(oxDoc, t); g > 0 {
				gains = append(gains, g)
			}
		}
	}
	if ws < len(gains) {
		slices.SortFunc(gains, func(a, b float64) int { return cmp.Compare(b, a) })
		gains = gains[:ws]
	}
	sum := s.Model.Sum(oxDoc, ud.Terms())
	if len(gains) == 0 {
		return sum
	}
	for _, g := range gains {
		sum += g
	}
	n := float64(2*len(ud.Terms()) + len(gains) + 1)
	return math.Nextafter(sum*(1+float64(n*0x1p-52)), math.Inf(1))
}

// TopWeightedCandidates returns up to ws candidate keywords from the
// intersection of ud's terms with W, ranked by the gain they can add to
// oxDoc (ties by ascending term) — the HW_{w,u} construction of Section
// 6.2.1. If include is a valid term it is forced into the result (taking
// one slot).
func (s *Scorer) TopWeightedCandidates(oxDoc, ud vocab.Doc, w CandidateSet, ws int, include vocab.TermID, forceInclude bool) []vocab.TermID {
	type tg struct {
		t vocab.TermID
		g float64
	}
	var cands []tg
	for _, t := range ud.Terms() {
		if w[t] && (!forceInclude || t != include) {
			cands = append(cands, tg{t, s.Model.AddWeight(oxDoc, t)})
		}
	}
	slices.SortFunc(cands, func(a, b tg) int {
		if c := cmp.Compare(b.g, a.g); c != 0 {
			return c
		}
		return cmp.Compare(a.t, b.t)
	})
	out := make([]vocab.TermID, 0, ws)
	if forceInclude {
		out = append(out, include)
	}
	for _, c := range cands {
		if len(out) >= ws {
			break
		}
		out = append(out, c.t)
	}
	return out
}
