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
// objects at fanout 8) of either kind, and are the records the
// single-goroutine build stored before, pinned by sha256.
func TestBuildIndependentOfWorkers(t *testing.T) {
	want := map[Kind]string{
		IRTree:  "8145066fc6eb090fa0b3a96e0b8b5be3f25db937456d94583af319c8fb7933ec",
		MIRTree: "c86d315197bd56fddf268bb7f3ba07b6750044613f298c178843a319e05c6281",
	}
	ds := dataset.GenerateFlickr(dataset.FlickrConfig{
		NumObjects: 5000, VocabSize: 400, MeanTags: 5, NumCluster: 8, Zipf: 1.1, Seed: 11,
	})
	model := textrel.NewScorer(ds, textrel.LM, 0.5).Model
	stored := func(kind Kind, procs int) string {
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
	for _, kind := range []Kind{IRTree, MIRTree} {
		one, four := stored(kind, 1), stored(kind, 4)
		if one != four {
			t.Errorf("%v: records stored under GOMAXPROCS 1 (sha256 %s) differ from GOMAXPROCS 4's (%s)", kind, one, four)
		}
		if one != want[kind] {
			t.Errorf("%v: records sha256 %s, want %s", kind, one, want[kind])
		}
	}
}
