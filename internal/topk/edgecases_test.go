package topk

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/irtree"
	"repro/internal/textrel"
	"repro/internal/vocab"
)

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
