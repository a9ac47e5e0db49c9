package shardplan

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	maxbrstknn "repro"
	"repro/internal/dataset"
	"repro/internal/geo"
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
// every object in exactly one non-empty shard, ids ascending, each
// region containing its objects.
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
			r := p1.Regions[s]
			for _, id := range ids {
				if seen[id] {
					t.Fatalf("n=%d: object %d in two shards", n, id)
				}
				seen[id] = true
				loc := ds.Objects[id].Loc
				if loc.X < r[0] || loc.X > r[2] || loc.Y < r[1] || loc.Y > r[3] {
					t.Fatalf("n=%d: object %d outside shard %d region", n, id, s)
				}
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

// TestAssignUsers: each user goes to its provably nearest region center
// (ties to the lower shard id), every user exactly once — and a user set
// huddled in one corner leaves distant shards with empty lists rather
// than erroring.
func TestAssignUsers(t *testing.T) {
	ds := fixtureDataset(t, 400, 5)
	p, err := Split(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	us := dataset.GenerateUsers(ds, dataset.UserConfig{NumUsers: 60, UL: 2, UW: 12, Area: 3, Seed: 9})
	assigned := p.AssignUsers(us.Users)
	count := 0
	for s, uis := range assigned {
		count += len(uis)
		for _, ui := range uis {
			d := us.Users[ui].Loc.Dist(p.center(s))
			for o := 0; o < p.Shards; o++ {
				od := us.Users[ui].Loc.Dist(p.center(o))
				if od < d || (od == d && o < s) {
					t.Fatalf("user %d assigned to shard %d but shard %d is nearer", ui, s, o)
				}
			}
		}
	}
	if count != len(us.Users) {
		t.Fatalf("%d of %d users assigned", count, len(us.Users))
	}

	// All users at one object's corner: at least one far shard must end
	// up with no users, and that is not an error.
	corner := ds.Objects[p.Objects[0][0]].Loc
	huddle := make([]dataset.User, 5)
	for i := range huddle {
		huddle[i] = dataset.User{ID: int32(i), Loc: corner}
	}
	byShard := p.AssignUsers(huddle)
	empty := 0
	for _, uis := range byShard {
		if len(uis) == 0 {
			empty++
		}
	}
	if empty == 0 {
		t.Fatal("expected at least one user-empty shard for a huddled cohort")
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
	sess, err := idx.NewParallelSession(users, k, maxbrstknn.ParallelOptions{})
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

// TestNearestShardGeometry pins the tie-break: equidistant centers route
// to the lower shard id.
func TestNearestShardGeometry(t *testing.T) {
	p := &Plan{
		Shards:  2,
		Objects: [][]int{{0}, {1}},
		Regions: [][4]float64{{0, 0, 2, 2}, {4, 0, 6, 2}}, // centers (1,1) and (5,1)
	}
	if s := p.NearestShard(geo.Point{X: 3, Y: 1}); s != 0 {
		t.Fatalf("midpoint routed to shard %d, want 0", s)
	}
	if s := p.NearestShard(geo.Point{X: 4.9, Y: 1}); s != 1 {
		t.Fatalf("near point routed to shard %d, want 1", s)
	}
}
