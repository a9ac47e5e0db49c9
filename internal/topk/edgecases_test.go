package topk

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/irtree"
	"repro/internal/textrel"
	"repro/internal/vocab"
)

// Edge cases the generators never produce: objects with empty documents,
// users whose keywords appear in no object, co-located points, and a
// single-object corpus. The joint pipeline must agree with brute force on
// all of them.
func TestJointEdgeCases(t *testing.T) {
	v := vocab.New()
	a, b := v.Add("a"), v.Add("b")
	ghost := v.Add("ghost") // appears in no object

	objects := []dataset.Object{
		{ID: 0, Loc: geo.Point{X: 0, Y: 0}, Doc: vocab.DocFromTerms([]vocab.TermID{a})},
		{ID: 1, Loc: geo.Point{X: 0, Y: 0}, Doc: vocab.Doc{}}, // empty doc, same spot
		{ID: 2, Loc: geo.Point{X: 5, Y: 5}, Doc: vocab.DocFromTerms([]vocab.TermID{a, b})},
		{ID: 3, Loc: geo.Point{X: 5, Y: 5}, Doc: vocab.DocFromTerms([]vocab.TermID{b})},
	}
	ds := dataset.Build(objects, v)
	users := []dataset.User{
		{ID: 0, Loc: geo.Point{X: 0, Y: 0}, Doc: vocab.DocFromTerms([]vocab.TermID{a})},
		{ID: 1, Loc: geo.Point{X: 5, Y: 5}, Doc: vocab.DocFromTerms([]vocab.TermID{ghost})},
		{ID: 2, Loc: geo.Point{X: 2, Y: 2}, Doc: vocab.DocFromTerms([]vocab.TermID{a, b, ghost})},
	}

	for _, measure := range []textrel.MeasureKind{textrel.LM, textrel.TFIDF, textrel.KO, textrel.BM25} {
		scorer := textrel.NewScorer(ds, measure, 0.5)
		tree := irtree.Build(ds, scorer.Model, irtree.Config{Kind: irtree.MIRTree, Fanout: 4})
		for _, k := range []int{1, 2, 4} {
			joint, err := JointTopK(tree, scorer, users, k, 1, 1, nil)
			if err != nil {
				t.Fatalf("%s k=%d: %v", measure, k, err)
			}
			norms := scorer.UserNorms(users)
			for ui := range users {
				// brute force
				var scores []float64
				for _, o := range ds.Objects {
					scores = append(scores, scorer.STS(o.Loc, o.Doc, users[ui].Loc, users[ui].Doc, norms[ui]))
				}
				// descending
				for i := 0; i < len(scores); i++ {
					for j := i + 1; j < len(scores); j++ {
						if scores[j] > scores[i] {
							scores[i], scores[j] = scores[j], scores[i]
						}
					}
				}
				want := scores
				if len(want) > k {
					want = want[:k]
				}
				got := joint.PerUser[ui].Results
				if len(got) != len(want) {
					t.Fatalf("%s k=%d user %d: %d results, want %d", measure, k, ui, len(got), len(want))
				}
				for i := range want {
					if got[i].Score != want[i] {
						t.Fatalf("%s k=%d user %d rank %d: %v, want %v",
							measure, k, ui, i, got[i].Score, want[i])
					}
				}
			}
		}
	}
}

// A single-object tree: the joint pipeline degenerates gracefully.
func TestJointSingleObject(t *testing.T) {
	v := vocab.New()
	a := v.Add("a")
	ds := dataset.Build([]dataset.Object{
		{ID: 0, Loc: geo.Point{X: 1, Y: 1}, Doc: vocab.DocFromTerms([]vocab.TermID{a})},
	}, v)
	scorer := textrel.NewScorer(ds, textrel.KO, 0.5)
	tree := irtree.Build(ds, scorer.Model, irtree.Config{Kind: irtree.MIRTree, Fanout: 4})
	users := []dataset.User{{ID: 0, Loc: geo.Point{X: 1, Y: 1}, Doc: vocab.DocFromTerms([]vocab.TermID{a})}}
	joint, err := JointTopK(tree, scorer, users, 3, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(joint.PerUser[0].Results) != 1 {
		t.Fatalf("results = %v", joint.PerUser[0].Results)
	}
	if got := joint.PerUser[0].Results[0].Score; got != 1.0 {
		t.Errorf("perfect-match score = %v, want 1", got)
	}
}

// Users at identical locations with identical keywords must all get the
// same thresholds; the super-user degenerates to a point.
func TestJointIdenticalUsers(t *testing.T) {
	v := vocab.New()
	a := v.Add("a")
	var objects []dataset.Object
	for i := 0; i < 50; i++ {
		objects = append(objects, dataset.Object{
			ID:  int32(i),
			Loc: geo.Point{X: float64(i), Y: 0},
			Doc: vocab.DocFromTerms([]vocab.TermID{a}),
		})
	}
	ds := dataset.Build(objects, v)
	scorer := textrel.NewScorer(ds, textrel.LM, 0.5)
	tree := irtree.Build(ds, scorer.Model, irtree.Config{Kind: irtree.MIRTree, Fanout: 8})
	users := make([]dataset.User, 5)
	for i := range users {
		users[i] = dataset.User{ID: int32(i), Loc: geo.Point{X: 10, Y: 0}, Doc: vocab.DocFromTerms([]vocab.TermID{a})}
	}
	joint, err := JointTopK(tree, scorer, users, 3, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	first := joint.PerUser[0].RSk
	for ui := 1; ui < len(users); ui++ {
		if joint.PerUser[ui].RSk != first {
			t.Fatalf("identical users got different RSk: %v vs %v", joint.PerUser[ui].RSk, first)
		}
	}
	su := BuildSuperUser(users, scorer)
	if su.MBR.Area() != 0 {
		t.Error("identical locations should give a degenerate super-user MBR")
	}
	if su.MinNorm != su.MaxNorm {
		t.Error("identical keywords should give equal group norms")
	}
}
