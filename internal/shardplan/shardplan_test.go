package shardplan

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	maxbrstknn "repro"
	"repro/internal/dataset"
	"repro/internal/indexutil"
	"repro/internal/vocab"
)

// fixtureDataset generates a synthetic dataset and round-trips it
// through the interchange format, the way a shard server reads its -data
// directory: the round-trip densifies the vocabulary to terms that
// actually occur, in appearance order — the id space every process
// derives identically from the shared file.
func fixtureDataset(t *testing.T, n int, seed int64) *dataset.Dataset {
	t.Helper()
	cfg := dataset.DefaultFlickrConfig(n)
	cfg.Seed = seed
	gen := dataset.GenerateFlickr(cfg)
	var buf bytes.Buffer
	if err := dataset.WriteObjects(&buf, gen); err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.ReadObjects(&buf, vocab.New())
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestSplitDeterministicPartition: Split is a pure function of the
// dataset — two runs agree exactly — and it yields a true partition:
// every object in exactly one non-empty shard, ids ascending.
func TestSplitDeterministicPartition(t *testing.T) {
	ds := fixtureDataset(t, 500, 3)
	for _, n := range []int{1, 2, 4, 7} {
		p1, err := Split(ds, n)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := Split(ds, n)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p1, p2) {
			t.Fatalf("n=%d: Split not deterministic", n)
		}
		seen := make(map[int]bool)
		for s, ids := range p1.Objects {
			if len(ids) == 0 {
				t.Fatalf("n=%d: shard %d empty", n, s)
			}
			if !sort.IntsAreSorted(ids) {
				t.Fatalf("n=%d: shard %d ids not ascending", n, s)
			}
			for _, id := range ids {
				if seen[id] {
					t.Fatalf("n=%d: object %d in two shards", n, id)
				}
				seen[id] = true
			}
		}
		if len(seen) != len(ds.Objects) {
			t.Fatalf("n=%d: %d of %d objects assigned", n, len(seen), len(ds.Objects))
		}
	}
	if _, err := Split(ds, 0); err == nil {
		t.Fatal("zero shards accepted")
	}
	if _, err := Split(ds, len(ds.Objects)+1); err == nil {
		t.Fatal("more shards than objects accepted")
	}
}

// TestBuildShardFrozenEquivalence: FrozenCorpusOf on the raw dataset
// equals the built global index's FrozenCorpus, and shards built from a
// plan answer phase 1 exactly — including when k exceeds a shard's
// object count, the merge's small-shard boundary case.
func TestBuildShardFrozenEquivalence(t *testing.T) {
	ds := fixtureDataset(t, 60, 11)
	opts := maxbrstknn.Options{Measure: maxbrstknn.LanguageModel}
	idx, err := indexutil.BuilderFromDataset(ds).Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := maxbrstknn.FrozenCorpusOf(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fc, idx.FrozenCorpus()) {
		t.Fatal("FrozenCorpusOf differs from Index.FrozenCorpus")
	}

	p, err := Split(ds, 6) // ~10 objects per shard
	if err != nil {
		t.Fatal(err)
	}
	us := dataset.GenerateUsers(ds, dataset.UserConfig{NumUsers: 12, UL: 2, UW: 10, Area: 4, Seed: 13})
	users := indexutil.UserSpecs(ds.Vocab, us.Users)
	k := 15 // larger than every shard's object count
	sess, err := idx.NewSession(users, k)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	joint, err := sess.Phase1(nil, maxbrstknn.ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantLists := joint.PerUser
	wantRSK := sess.Thresholds()

	lists := make([][][]maxbrstknn.RankedObject, len(users))
	for s := 0; s < p.Shards; s++ {
		six, err := BuildShard(ds, p, s, fc, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Objects[s]) >= k {
			t.Fatalf("fixture broken: shard %d has %d objects, want < k=%d", s, len(p.Objects[s]), k)
		}
		ss, err := six.NewUnpreparedSession(users, k)
		if err != nil {
			t.Fatal(err)
		}
		ph, err := ss.Phase1(nil, maxbrstknn.ParallelOptions{Workers: 2, Groups: 2})
		ss.Close()
		if err != nil {
			t.Fatal(err)
		}
		for u := range users {
			lists[u] = append(lists[u], ph.PerUser[u])
		}
	}
	for u := range users {
		merged := maxbrstknn.MergeTopK(k, lists[u]...)
		if !reflect.DeepEqual(merged, wantLists[u]) {
			t.Fatalf("user %d: merged top-k differs", u)
		}
		if got := maxbrstknn.ThresholdFromMerged(merged, k); got != wantRSK[u] {
			t.Fatalf("user %d: merged threshold %v, single-index %v", u, got, wantRSK[u])
		}
	}

	if _, err := BuildShard(ds, p, p.Shards, fc, opts); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
}
