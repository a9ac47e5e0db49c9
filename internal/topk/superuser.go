// Package topk implements the paper's joint top-k processing (Section 5):
// the super-user grouping (5.2), the upper/lower bound estimations of
// Lemma 2 (5.3), the shared MIR-tree traversal of Algorithm 1, and the
// individual per-user refinement of Algorithm 2.
//
// There is one function per step — BuildSuperUser, Traverse, RefineUser —
// and one pipeline over them, JointTopK. What used to be separate entry
// points are parameter values: workers 1 and groups 1 is the sequential
// paper pipeline, a −MaxFloat64 floor or seed (nil seeds) the unseeded
// one, a nil RefineAux the paper's unpruned Algorithm 2 scan. BaselineTopK
// is the per-user loop of Section 4 that the experiments and this
// package's tests compare against.
package topk

import (
	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/textrel"
	"repro/internal/vocab"
)

// SuperUser aggregates a group of users (Section 5.2): the MBR of their
// locations, the union and intersection of their keywords, and the group's
// extreme normalizers, which keep Lemma 2 sound under per-user
// normalization: an upper bound divides by the smallest Norm(u), a lower
// bound by the largest.
type SuperUser struct {
	MBR      geo.Rect
	Uni      []vocab.TermID // union of user keywords, ascending
	Int      []vocab.TermID // intersection of user keywords, ascending
	MinNorm  float64        // min over users of Norm(u)
	MaxNorm  float64        // max over users of Norm(u)
	NumUsers int
}

// BuildSuperUser constructs the super-user of a user group, computing each
// user's normalizer with the scorer's model.
func BuildSuperUser(users []dataset.User, scorer *textrel.Scorer) SuperUser {
	su := SuperUser{MBR: dataset.UsersMBR(users), NumUsers: len(users)}
	if len(users) == 0 {
		su.MinNorm, su.MaxNorm = 1, 1
		return su
	}
	uniSet := make(map[vocab.TermID]int)
	for _, u := range users {
		for _, t := range u.Doc.Terms() {
			uniSet[t]++
		}
	}
	for t, cnt := range uniSet {
		su.Uni = append(su.Uni, t)
		if cnt == len(users) {
			su.Int = append(su.Int, t)
		}
	}
	sortTermIDs(su.Uni)
	sortTermIDs(su.Int)
	norms := scorer.UserNorms(users)
	su.MinNorm, su.MaxNorm = textrel.GroupNorms(norms)
	return su
}

func sortTermIDs(ts []vocab.TermID) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}

// UBText converts an entry's maximum text sum over the union terms into
// the textual component of MaxSTS(E, us).
func (su SuperUser) UBText(maxSum float64) float64 { return maxSum / su.MinNorm }

// LBText converts an entry's minimum text sum over the intersection terms
// into the textual component of LB(E, us).
func (su SuperUser) LBText(minSum float64) float64 { return minSum / su.MaxNorm }
