// Package topk implements the paper's joint top-k processing (Section 5):
// the super-user grouping (5.2), the upper/lower bound estimations of
// Lemma 2 (5.3), the shared MIR-tree traversal of Algorithm 1, and the
// individual per-user refinement of Algorithm 2.
//
// There is one group aggregate, SuperUser (OneUser, Merge), which the
// MIUR-tree stores too, one function per step — BuildSuperUser, Traverse,
// RefineUser — and one pipeline over them, JointTopK. What used to be
// separate entry points are parameter values: workers 1 and groups 1 is
// the sequential paper pipeline, a −MaxFloat64 floor or seed (nil seeds)
// the unseeded one, a nil RefineAux the paper's unpruned Algorithm 2 scan.
// BaselineTopK is the per-user loop of Section 4 that the experiments and
// this package's tests compare against.
package topk

import (
	"slices"

	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/textrel"
	"repro/internal/vocab"
)

// SuperUser aggregates a group of users (Section 5.2): the MBR of their
// locations, the union and intersection of their keywords, and the group's
// extreme normalizers, which keep Lemma 2 sound under per-user
// normalization: an upper bound divides by the smallest Norm(u), a lower
// bound by the largest. It is the one group aggregate: OneUser makes a
// user's, Merge combines groups', BuildSuperUser merges a user set's, and
// every MIUR-tree entry stores the super-user of the users beneath it.
type SuperUser struct {
	MBR      geo.Rect
	Uni      []vocab.TermID // union of user keywords, ascending
	Int      []vocab.TermID // intersection of user keywords, ascending
	MinNorm  float64        // min over users of Norm(u)
	MaxNorm  float64        // max over users of Norm(u)
	NumUsers int
}

// OneUser returns the super-user of u alone, whose normalizer is norm. Its
// term sets alias u's document.
func OneUser(u *dataset.User, norm float64) SuperUser {
	terms := u.Doc.Terms()
	return SuperUser{MBR: geo.RectFromPoint(u.Loc), Uni: terms, Int: terms, MinNorm: norm, MaxNorm: norm, NumUsers: 1}
}

// Merge returns the super-user of the users of non-empty groups together.
// Merge of one group is that group; Merge of none has no users and unit
// normalizers.
func Merge(groups []SuperUser) SuperUser {
	if len(groups) == 1 {
		return groups[0]
	}
	su := SuperUser{MBR: geo.EmptyRect(), MinNorm: 1, MaxNorm: 1}
	nUni, nInt := 0, 0
	for _, g := range groups {
		nUni += len(g.Uni)
		nInt += len(g.Int)
	}
	uni := make([]vocab.TermID, 0, nUni)
	ints := make([]vocab.TermID, 0, nInt)
	for i, g := range groups {
		su.MBR = su.MBR.Union(g.MBR)
		su.NumUsers += g.NumUsers
		uni = append(uni, g.Uni...)
		ints = append(ints, g.Int...)
		if i == 0 || g.MinNorm < su.MinNorm {
			su.MinNorm = g.MinNorm
		}
		if i == 0 || g.MaxNorm > su.MaxNorm {
			su.MaxNorm = g.MaxNorm
		}
	}
	slices.Sort(uni)
	su.Uni = slices.Compact(uni)
	// Each group's intersection is strictly ascending, so a term is in all
	// of them exactly when it occurs once per group.
	slices.Sort(ints)
	su.Int = ints[:0]
	for i := 0; i < len(ints); {
		j := i + 1
		for j < len(ints) && ints[j] == ints[i] {
			j++
		}
		if j-i == len(groups) {
			su.Int = append(su.Int, ints[i])
		}
		i = j
	}
	return su
}

// BuildSuperUser constructs the super-user of a user group, computing each
// user's normalizer with the scorer's model.
func BuildSuperUser(users []dataset.User, scorer *textrel.Scorer) SuperUser {
	groups := make([]SuperUser, len(users))
	for i := range users {
		groups[i] = OneUser(&users[i], scorer.Norm(users[i].Doc))
	}
	return Merge(groups)
}
