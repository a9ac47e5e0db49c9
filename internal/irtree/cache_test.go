package irtree_test

import (
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/irtree"
	"repro/internal/persist"
	"repro/internal/textrel"
)

// saveAndLoad builds a MIR-tree over ds, saves it, and opens the file with
// a decoded cache of decodedBytes (0: none, so every read is a charged
// physical read).
func saveAndLoad(t *testing.T, ds *dataset.Dataset, measure textrel.MeasureKind, decodedBytes int64) *irtree.Tree {
	t.Helper()
	ix := &persist.Index{Measure: measure, Alpha: 0.5, Lambda: textrel.DefaultLambda, Fanout: 16, DS: ds}
	ix.Tree = irtree.Build(ds, textrel.NewModelWithLambda(ix.Measure, ds, ix.Lambda), irtree.Config{Kind: irtree.MIRTree, Fanout: 16})
	path := filepath.Join(t.TempDir(), "index.mxbr")
	if err := persist.Save(path, ix); err != nil {
		t.Fatal(err)
	}
	loaded, err := persist.Load(path, decodedBytes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { loaded.Close() })
	return loaded.Tree
}

// TestWarmCacheReducesIO: on a loaded index the decoded cache absorbs
// repeat traffic. Its hits charge no simulated I/O, and a warm directory
// reads only the runs a query wants, so both ledgers fall below the cold
// tree's, which records no cache traffic at all.
func TestWarmCacheReducesIO(t *testing.T) {
	ds := dataset.GenerateFlickr(dataset.FlickrConfig{
		NumObjects: 800, VocabSize: 300, MeanTags: 5, NumCluster: 8, Zipf: 1.2, Seed: 5,
	})
	scorer := textrel.NewScorer(ds, textrel.LM, 0.5)
	warm := saveAndLoad(t, ds, textrel.LM, 1<<20)
	cold := saveAndLoad(t, ds, textrel.LM, 0)

	us := dataset.GenerateUsers(ds, dataset.UserConfig{NumUsers: 30, UL: 3, UW: 15, Area: 20, Seed: 31})

	// runAll returns the simulated I/O and the physical pages of one pass
	// over every user.
	runAll := func(tree *irtree.Tree) (int64, int64) {
		tree.IO().Reset()
		before := tree.Backend().ReadStats().Pages
		for ui := range us.Users {
			if _, _, err := tree.TopK(scorer, &us.Users[ui], 5); err != nil {
				t.Fatal(err)
			}
		}
		return tree.IO().Total(), tree.Backend().ReadStats().Pages - before
	}

	coldIO, coldPages := runAll(cold)
	runAll(warm) // first touch fills the cache
	warmIO, warmPages := runAll(warm)
	if warmIO >= coldIO {
		t.Errorf("warm cache I/O %d should be below cold %d", warmIO, coldIO)
	}
	if warmPages >= coldPages {
		t.Errorf("warm tree read %d pages, cold %d: a warm directory should read only its wanted runs", warmPages, coldPages)
	}
	st := warm.DecodedCacheStats()
	if st.Hits == 0 {
		t.Error("warm cache recorded no hits across repeated user queries")
	}
	if st.Misses == 0 {
		t.Error("first reads must miss")
	}
	if st := cold.DecodedCacheStats(); st.Hits != 0 || st.Misses != 0 {
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
	warm := saveAndLoad(t, ds, textrel.KO, 64<<10) // small enough to evict
	cold := irtree.Build(ds, scorer.Model, irtree.Config{Kind: irtree.MIRTree, Fanout: 16})
	us := dataset.GenerateUsers(ds, dataset.UserConfig{NumUsers: 20, UL: 3, UW: 12, Area: 20, Seed: 33})
	for ui := range us.Users {
		u := &us.Users[ui]
		a, rskA, err := warm.TopK(scorer, u, 5)
		if err != nil {
			t.Fatal(err)
		}
		b, rskB, err := cold.TopK(scorer, u, 5)
		if err != nil {
			t.Fatal(err)
		}
		if rskA != rskB || len(a) != len(b) {
			t.Fatalf("user %d: warm/cold disagree", ui)
		}
		for i := range a {
			if a[i].Score != b[i].Score {
				t.Fatalf("user %d rank %d: %v vs %v", ui, i, a[i].Score, b[i].Score)
			}
		}
	}
}
