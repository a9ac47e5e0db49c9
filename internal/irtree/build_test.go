package irtree

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/textrel"
)

// TestBuildIndependentOfWorkers: Build's records, addresses included, are
// the same under GOMAXPROCS 1 and 4 for a tree five levels deep (5,000
// objects at fanout 8) of either kind under LM, TF-IDF and BM25, and are
// the records the single-goroutine build stored before, pinned by sha256.
// The LM rows moved when LM postings came to store increments without the
// smoothing floor; the TF-IDF and BM25 rows did not.
func TestBuildIndependentOfWorkers(t *testing.T) {
	want := []struct {
		measure textrel.MeasureKind
		kind    Kind
		sha256  string
	}{
		{textrel.LM, IRTree, "f2ff3e442e54a06541a6268377eadda725aa50ed383350ca6f244cedf27127fe"},
		{textrel.LM, MIRTree, "aae5ae7e7c0a1c4a2161ea8b35da3a3f6044c988917c3f22c425b62c207855c4"},
		{textrel.TFIDF, IRTree, "bdb5544c0dd3e6a91353cf439f7b1620cd5a79f9680c4dff42f10ed484bebc63"},
		{textrel.TFIDF, MIRTree, "3aa0fc80afb0b02506655b380dd50d0ef513e894154d691fc079501b155e2f80"},
		{textrel.BM25, IRTree, "502225a937e511f692611bf7397c9fc1ef437dd69168b00873fe8fd1e75c772b"},
		{textrel.BM25, MIRTree, "b975e73f0a3aaf947e34a4bf4293c448b990edf0242745e687dccc4ac5db876b"},
	}
	ds := dataset.GenerateFlickr(dataset.FlickrConfig{
		NumObjects: 5000, VocabSize: 400, MeanTags: 5, NumCluster: 8, Zipf: 1.1, Seed: 11,
	})
	stored := func(model *textrel.Model, kind Kind, procs int) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		tree := Build(ds, model, Config{Kind: kind, Fanout: 8})
		if tree.Height() < 3 {
			t.Fatalf("%v: %d levels, want at least 3", kind, tree.Height())
		}
		h := sha256.New()
		store := tree.Backend()
		for _, id := range store.Records() {
			rec, err := store.ReadRecord(id)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(binary.AppendUvarint(binary.AppendUvarint(nil, uint64(id)), uint64(len(rec))))
			h.Write(rec)
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	for _, w := range want {
		model := textrel.NewScorer(ds, w.measure, 0.5).Model
		one, four := stored(model, w.kind, 1), stored(model, w.kind, 4)
		if one != four {
			t.Errorf("%v %v: records stored under GOMAXPROCS 1 (sha256 %s) differ from GOMAXPROCS 4's (%s)", w.measure, w.kind, one, four)
		}
		if one != w.sha256 {
			t.Errorf("%v %v: records sha256 %s, want %s", w.measure, w.kind, one, w.sha256)
		}
	}
}
