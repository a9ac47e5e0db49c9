package topk

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/irtree"
	"repro/internal/textrel"
)

func groupedFixture(t *testing.T, nObjects, nUsers int, seed int64) (*irtree.Tree, *textrel.Scorer, []dataset.User) {
	t.Helper()
	ds := dataset.GenerateFlickr(dataset.FlickrConfig{
		NumObjects: nObjects, VocabSize: 200, MeanTags: 5, NumCluster: 5, Zipf: 1.1, Seed: seed,
	})
	us := dataset.GenerateUsers(ds, dataset.UserConfig{NumUsers: nUsers, UL: 3, UW: 15, Area: 30, Seed: seed + 1})
	scorer := textrel.NewScorer(ds, textrel.LM, 0.5, dataset.UsersMBR(us.Users))
	tree := irtree.Build(ds, scorer.Model, irtree.Config{Kind: irtree.MIRTree, Fanout: 16})
	return tree, scorer, us.Users
}

func TestPartitionUsersIsAPartition(t *testing.T) {
	_, _, users := groupedFixture(t, 300, 97, 3)
	for _, groups := range []int{1, 2, 3, 4, 7, 16, 97, 200} {
		parts := PartitionUsers(users, groups)
		want := groups
		if want > len(users) {
			want = len(users)
		}
		if len(parts) != want {
			t.Errorf("groups=%d: got %d parts, want %d", groups, len(parts), want)
		}
		seen := make(map[int]bool)
		for _, part := range parts {
			if len(part) == 0 {
				t.Errorf("groups=%d: empty part", groups)
			}
			for _, ui := range part {
				if seen[ui] {
					t.Fatalf("groups=%d: user %d in two parts", groups, ui)
				}
				seen[ui] = true
			}
		}
		if len(seen) != len(users) {
			t.Errorf("groups=%d: %d users assigned, want %d", groups, len(seen), len(users))
		}
	}
}

func TestPartitionUsersEmpty(t *testing.T) {
	if parts := PartitionUsers(nil, 4); parts != nil {
		t.Fatalf("empty user set produced parts: %v", parts)
	}
}

// TestJointTopKEquivalence is the topk half of the determinism guarantee.
// The sequential paper pipeline (workers 1, groups 1, nil seeds) must
// reproduce the per-user baseline (independent IR-tree searches) bit for
// bit — both score objects exactly and break ties by id — and every
// other (workers, groups, seeds) —
// grouped, concurrent, and seeded as a coordinator's waves seed it — must
// reproduce the sequential row bit for bit: unseeded rows entirely, RSk
// included; seeded rows on the entries scoring ≥ the user's seed, which is
// all a merge consumes.
func TestJointTopKEquivalence(t *testing.T) {
	tree, scorer, users := groupedFixture(t, 400, 60, 11)
	const k = 5
	base, err := BaselineTopK(tree, scorer, users, k)
	if err != nil {
		t.Fatal(err)
	}
	// Real forwarded bounds: each user's k-th best score over a sibling
	// shard holding every other object — a lower bound on the global k-th.
	ds := tree.Dataset()
	var half []dataset.Object
	for i := 0; i < len(ds.Objects); i += 2 {
		o := ds.Objects[i]
		o.ID = int32(len(half))
		half = append(half, o)
	}
	sibling := irtree.Build(dataset.Build(half, ds.Vocab), scorer.Model, irtree.Config{Kind: irtree.MIRTree, Fanout: 16})
	sib, err := BaselineTopK(sibling, scorer, users, k)
	if err != nil {
		t.Fatal(err)
	}
	real := make([]float64, len(users))
	for ui := range real {
		real[ui] = sib[ui].RSk
	}

	var seq *JointResult
	for _, row := range []struct {
		workers, groups int
		seeds           []float64
	}{
		{1, 1, nil}, {1, 4, nil}, {4, 4, nil}, {2, 3, make([]float64, len(users))}, {2, 3, real},
	} {
		got, err := JointTopK(tree, scorer, users, k, row.workers, row.groups, row.seeds)
		if err != nil {
			t.Fatalf("workers=%d groups=%d: %v", row.workers, row.groups, err)
		}
		if seq == nil {
			seq = got
			for ui, b := range base {
				if g := got.PerUser[ui]; !reflect.DeepEqual(g.Results, b.Results) || g.RSk != b.RSk {
					t.Fatalf("user %d: sequential %+v, baseline %+v", ui, g, b)
				}
			}
			continue
		}
		for ui, want := range seq.PerUser {
			seed := -math.MaxFloat64
			if row.seeds != nil {
				seed = row.seeds[ui]
			}
			g := got.PerUser[ui]
			if !reflect.DeepEqual(atOrAbove(g.Results, seed), atOrAbove(want.Results, seed)) || g.RSk != math.Max(want.RSk, seed) {
				t.Fatalf("workers=%d groups=%d seeded=%v user %d:\n got  %+v\n want %+v (seed %v)",
					row.workers, row.groups, row.seeds != nil, ui, g, want, seed)
			}
		}
	}
}

// atOrAbove trims a score-descending result list to the entries ≥ seed.
func atOrAbove(rs []irtree.Result, seed float64) []irtree.Result {
	for len(rs) > 0 && rs[len(rs)-1].Score < seed {
		rs = rs[:len(rs)-1]
	}
	return rs
}

// TestPrunedRefinementMatchesUnpruned asserts the lossless-pruning claim
// directly: for every user, RefineUser with the suffix-maxima index (what
// JointTopK and the user-indexed engine run) returns exactly what the
// paper's unpruned Algorithm 2 scan (nil aux) returns — scores, order, and
// RSk — under every measure.
func TestPrunedRefinementMatchesUnpruned(t *testing.T) {
	for _, measure := range []textrel.MeasureKind{textrel.LM, textrel.TFIDF, textrel.KO} {
		tree, scorer, users := groupedFixture(t, 600, 40, int64(17+measure))
		tr, err := Traverse(tree, scorer, BuildSuperUser(users, scorer), 5, -math.MaxFloat64, &TraverseScratch{})
		if err != nil {
			t.Fatal(err)
		}
		aux := NewRefineAux(tr)
		norms := scorer.UserNorms(users)
		var sc RefineScratch
		for ui := range users {
			want := RefineUser(tree.Dataset(), scorer, &users[ui], norms[ui], tr, nil, 5, -math.MaxFloat64, &sc)
			got := RefineUser(tree.Dataset(), scorer, &users[ui], norms[ui], tr, aux, 5, -math.MaxFloat64, &sc)
			if got.RSk != want.RSk || !reflect.DeepEqual(got.Results, want.Results) {
				t.Fatalf("%v user %d: pruned %+v != unpruned %+v", measure, ui, got, want)
			}
		}
	}
}

// TestGroupedTraversalCoversUserTopK checks the grouped soundness
// argument directly: each group traversal's candidate set contains every
// object of its users' exact (baseline-computed) top-k.
func TestGroupedTraversalCoversUserTopK(t *testing.T) {
	tree, scorer, users := groupedFixture(t, 400, 40, 19)
	const k = 4
	base, err := BaselineTopK(tree, scorer, users, k)
	if err != nil {
		t.Fatal(err)
	}
	parts := PartitionUsers(users, 5)
	for g, part := range parts {
		gu := make([]dataset.User, len(part))
		for i, ui := range part {
			gu[i] = users[ui]
		}
		su := BuildSuperUser(gu, scorer)
		tr, err := Traverse(tree, scorer, su, k, -math.MaxFloat64, &TraverseScratch{})
		if err != nil {
			t.Fatal(err)
		}
		inCands := make(map[int32]bool)
		for _, o := range tr.Candidates() {
			inCands[o.ObjID] = true
		}
		for _, ui := range part {
			for _, r := range base[ui].Results {
				if !inCands[r.ObjID] {
					t.Fatalf("group %d: user %d top-k object %d missing from group candidates", g, ui, r.ObjID)
				}
			}
		}
	}
}
