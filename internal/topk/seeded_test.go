package topk

import (
	"math"
	"reflect"
	"testing"
)

// TestSeededPreservesTopKAndPrunes: seeding each user with their own exact
// k-th best score (the tightest bound a coordinator could ever forward)
// must leave every user's top-k result list unchanged — the seed equals
// the qualifying threshold, and ties survive the ≥ test — while visiting
// no more tree nodes than the unseeded run.
func TestSeededPreservesTopKAndPrunes(t *testing.T) {
	tree, scorer, users := groupedFixture(t, 600, 50, 12)
	k := 5
	zero := make([]float64, len(users))
	base, err := JointTopK(tree, scorer, users, k, 2, 4, zero)
	if err != nil {
		t.Fatal(err)
	}
	seeds := make([]float64, len(users))
	for ui, u := range base.PerUser {
		if u.RSk > 0 {
			seeds[ui] = u.RSk
		}
	}
	seeded, err := JointTopK(tree, scorer, users, k, 2, 4, seeds)
	if err != nil {
		t.Fatal(err)
	}
	for ui := range users {
		if !reflect.DeepEqual(seeded.PerUser[ui].Results, base.PerUser[ui].Results) {
			t.Fatalf("user %d: seeded top-k differs from unseeded", ui)
		}
	}
	if seeded.Visited > base.Visited {
		t.Fatalf("seeded traversal visited %d nodes, unseeded %d", seeded.Visited, base.Visited)
	}
	if base.Visited == 0 {
		t.Fatal("unseeded traversal reports zero visited nodes")
	}
}

// TestSeededRefinementThresholdFloor: the refinement threshold never
// drops below the seed, and a seed above every candidate score (scores
// are ≤ 1 here) makes the RO scan contribute nothing — the result is
// exactly the LO-only refinement.
func TestSeededRefinementThresholdFloor(t *testing.T) {
	tree, scorer, users := groupedFixture(t, 200, 10, 14)
	su := BuildSuperUser(users[:1], scorer)
	tr, err := Traverse(tree, scorer, su, 3, -math.MaxFloat64, &TraverseScratch{})
	if err != nil {
		t.Fatal(err)
	}
	norms := scorer.UserNorms(users[:1])
	var sc RefineScratch
	got := RefineUser(tree.Dataset(), scorer, &users[0], norms[0], tr, nil, 3, 2.0, &sc)
	if got.RSk < 2.0 {
		t.Fatalf("RSk %v below seed", got.RSk)
	}
	loOnly := &TraversalResult{LO: tr.LO, RSkSuper: tr.RSkSuper}
	want := RefineUser(tree.Dataset(), scorer, &users[0], norms[0], loOnly, nil, 3, 2.0, &RefineScratch{})
	if !reflect.DeepEqual(got.Results, want.Results) {
		t.Fatal("an all-dominating seed should reduce the scan to the LO-only refinement")
	}
}
