package irtree_test

import (
	"math"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/irtree"
	"repro/internal/persist"
	"repro/internal/textrel"
)

// saveAndLoad builds a MIR-tree over ds, saves it, and opens the file with
// a buffer pool of capacity records (0: none) and no decoded cache, so
// every pool miss is a charged read.
func saveAndLoad(t *testing.T, ds *dataset.Dataset, measure textrel.MeasureKind, capacity int) *irtree.Tree {
	t.Helper()
	ix := &persist.Index{Measure: measure, Alpha: 0.5, Lambda: textrel.DefaultLambda, Fanout: 16, DS: ds}
	ix.Tree = irtree.Build(ds, ix.NewModel(ds), irtree.Config{Kind: irtree.MIRTree, Fanout: 16})
	path := filepath.Join(t.TempDir(), "index.mxbr")
	if err := persist.Save(path, ix); err != nil {
		t.Fatal(err)
	}
	loaded, err := persist.Load(path, capacity, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { loaded.Close() })
	return loaded.Tree
}

func TestWarmCacheReducesIO(t *testing.T) {
	ds := dataset.GenerateFlickr(dataset.FlickrConfig{
		NumObjects: 800, VocabSize: 300, MeanTags: 5, NumCluster: 8, Zipf: 1.2, Seed: 5,
	})
	scorer := textrel.NewScorer(ds, textrel.LM, 0.5)
	warm := saveAndLoad(t, ds, textrel.LM, 4096)
	cold := saveAndLoad(t, ds, textrel.LM, 0)

	us := dataset.GenerateUsers(ds, dataset.UserConfig{NumUsers: 30, UL: 3, UW: 15, Area: 20, Seed: 31})

	runAll := func(tree *irtree.Tree) int64 {
		tree.IO().Reset()
		for ui := range us.Users {
			if _, _, err := tree.TopK(scorer, irtree.ViewOf(&us.Users[ui], scorer), 5); err != nil {
				t.Fatal(err)
			}
		}
		return tree.IO().Total()
	}

	coldIO := runAll(cold)
	warmIO := runAll(warm)
	if warmIO >= coldIO {
		t.Errorf("warm cache I/O %d should be below cold %d", warmIO, coldIO)
	}
	hits, misses := warm.CacheStats()
	if hits == 0 {
		t.Error("warm cache recorded no hits across repeated user queries")
	}
	if misses == 0 {
		t.Error("first reads must miss")
	}
	if h, m := cold.CacheStats(); h != 0 || m != 0 {
		t.Error("cold tree should have no cache stats")
	}
}

// Results must be identical warm or cold — the cache only affects
// accounting, never answers.
func TestWarmCacheSameResults(t *testing.T) {
	ds := dataset.GenerateFlickr(dataset.FlickrConfig{
		NumObjects: 600, VocabSize: 250, MeanTags: 5, NumCluster: 6, Zipf: 1.2, Seed: 9,
	})
	scorer := textrel.NewScorer(ds, textrel.KO, 0.5)
	warm := saveAndLoad(t, ds, textrel.KO, 1024)
	cold := irtree.Build(ds, scorer.Model, irtree.Config{Kind: irtree.MIRTree, Fanout: 16})
	us := dataset.GenerateUsers(ds, dataset.UserConfig{NumUsers: 20, UL: 3, UW: 12, Area: 20, Seed: 33})
	for ui := range us.Users {
		view := irtree.ViewOf(&us.Users[ui], scorer)
		a, rskA, err := warm.TopK(scorer, view, 5)
		if err != nil {
			t.Fatal(err)
		}
		b, rskB, err := cold.TopK(scorer, view, 5)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(rskA-rskB) > 1e-12 || len(a) != len(b) {
			t.Fatalf("user %d: warm/cold disagree", ui)
		}
		for i := range a {
			if math.Abs(a[i].Score-b[i].Score) > 1e-12 {
				t.Fatalf("user %d rank %d: %v vs %v", ui, i, a[i].Score, b[i].Score)
			}
		}
	}
}
