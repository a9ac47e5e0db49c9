package irtree

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/textrel"
	"repro/internal/vocab"
)

// insertFixture builds an index over the first half of a dataset and
// returns the remaining objects for insertion. The model is frozen over
// the *full* corpus so that incremental results are comparable to a
// bulk-loaded index over everything.
func insertFixture(t testing.TB, n int, seed int64) (*Tree, []dataset.Object, *textrel.Scorer, *dataset.Dataset) {
	t.Helper()
	full := dataset.GenerateFlickr(dataset.FlickrConfig{
		NumObjects: n, VocabSize: 250, MeanTags: 5, NumCluster: 6, Zipf: 1.2, Seed: seed,
	})
	scorer := textrel.NewScorer(full, textrel.LM, 0.5)
	half := len(full.Objects) / 2
	// a *copy* of the dataset containing only the first half, sharing
	// vocabulary and (frozen) statistics with the full corpus
	sub := &dataset.Dataset{
		Objects: append([]dataset.Object(nil), full.Objects[:half]...),
		Vocab:   full.Vocab,
		Stats:   full.Stats,
		Space:   full.Space,
	}
	tree := Build(sub, scorer.Model, Config{Kind: MIRTree, Fanout: 8})
	return tree, full.Objects[half:], scorer, full
}

// After inserts, top-k answers must match a brute-force scan over the
// grown corpus under the frozen model — the search correctness invariant
// survives incremental maintenance.
func TestInsertTopKMatchesBruteForce(t *testing.T) {
	tree, rest, scorer, full := insertFixture(t, 500, 61)
	for _, o := range rest {
		nt, err := tree.With(-1, &o)
		if err != nil {
			t.Fatal(err)
		}
		tree = nt
	}
	us := dataset.GenerateUsers(full, dataset.UserConfig{NumUsers: 15, UL: 3, UW: 12, Area: 20, Seed: 62})
	for ui := range us.Users {
		u := &us.Users[ui]
		got, _, err := tree.TopK(scorer, u, 5)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteTopK(tree.Dataset(), scorer, u, 5)
		if len(got) != len(want) {
			t.Fatalf("user %d: %d results, want %d", ui, len(got), len(want))
		}
		for i := range want {
			if got[i].Score != want[i].Score {
				t.Fatalf("user %d rank %d: %v vs %v", ui, i, got[i].Score, want[i].Score)
			}
		}
	}
}

// The MIR-tree weight invariant must hold after arbitrary insert sequences.
func TestInsertPostingBoundsInvariant(t *testing.T) {
	tree, rest, _, _ := insertFixture(t, 300, 71)
	rng := rand.New(rand.NewSource(72))
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	for i := range rest {
		rest[i].ID = int32(len(tree.Dataset().Objects)) // IDs must stay dense
		nt, err := tree.With(-1, &rest[i])
		if err != nil {
			t.Fatal(err)
		}
		tree = nt
	}
	checkSubtreeBounds(t, tree, rest[0].Doc.Terms())
}

func TestInsertIntoEmptyTree(t *testing.T) {
	v := vocab.New()
	a := v.Add("a")
	ds := dataset.Build(nil, v)
	scorer := textrel.NewScorer(ds, textrel.KO, 0.5)
	tree := Build(ds, scorer.Model, Config{Kind: MIRTree, Fanout: 8})
	for i := 0; i < 30; i++ {
		nt, err := tree.With(-1, &dataset.Object{
			ID:  int32(i),
			Loc: geo.Point{X: float64(i % 6), Y: float64(i / 6)},
			Doc: vocab.DocFromTerms([]vocab.TermID{a}),
		})
		if err != nil {
			t.Fatal(err)
		}
		tree = nt
	}
	root, err := tree.ReadNode(tree.RootID())
	if err != nil {
		t.Fatal(err)
	}
	if root.Count != 30 {
		t.Fatalf("count = %d", root.Count)
	}
	if tree.Height() < 2 {
		t.Errorf("30 inserts at fanout 8 should split, height = %d", tree.Height())
	}
}

func TestInsertRejectsBadID(t *testing.T) {
	tree, rest, _, _ := insertFixture(t, 100, 81)
	bad := rest[0]
	bad.ID = 9999
	if _, err := tree.With(-1, &bad); err == nil {
		t.Error("non-dense ID should be rejected")
	}
	if _, err := tree.With(9999, nil); err == nil {
		t.Error("deleting an unknown object should be rejected")
	}
}

// TestSplitAtDeltaWidthBoundary: at fanout 256 a node's entries take the
// whole one-byte delta range of its posting records. A root of 256 full
// leaves that gains a 257th entry from a leaf split must itself split; its
// record is never spliced at entry 256, which its deltas cannot hold.
func TestSplitAtDeltaWidthBoundary(t *testing.T) {
	const n = 256 * 256
	full := dataset.GenerateFlickr(dataset.FlickrConfig{
		NumObjects: n + 1, VocabSize: 50, MeanTags: 1, NumCluster: 4, Zipf: 1.1, Seed: 9,
	})
	ds := &dataset.Dataset{Objects: full.Objects[:n:n], Vocab: full.Vocab, Stats: full.Stats, Space: full.Space}
	tree := Build(ds, textrel.NewScorer(full, textrel.LM, 0.5).Model, Config{Kind: MIRTree, Fanout: 256})
	root, err := tree.ReadNode(tree.RootID())
	if err != nil || len(root.Entries) != 256 {
		t.Fatalf("root %d entries, err %v: want 256 full leaves", len(root.Entries), err)
	}
	grown, err := tree.With(-1, &full.Objects[n])
	if err != nil {
		t.Fatal(err)
	}
	if grown.Height() != tree.Height()+1 {
		t.Fatalf("height %d after the insert, want %d: the root did not split", grown.Height(), tree.Height()+1)
	}
}
