package maxbrstknn

import (
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/testgen"
)

// newShardFixture builds drawInstance(501)'s 260 objects into a global
// index under the default options, and returns them with its users, five
// holding a keyword of no vocabulary (every shard must handle it
// identically), and its first request.
func newShardFixture(t *testing.T) (*Index, []dataset.Object, []UserSpec, Request) {
	t.Helper()
	in := drawInstance(501)
	in.opts = Options{}
	return in.build(t, false), in.objects, in.users, in.reqs[0]
}

// buildShardSet splits the fixture objects round-robin (adversarial for
// spatial locality — exactness must not depend on the split) into n
// shard indexes under the global frozen context.
func buildShardSet(t testing.TB, fc FrozenCorpus, objs []dataset.Object, n int, opts Options) []*ShardIndex {
	t.Helper()
	builders := make([]*ShardBuilder, n)
	for i := range builders {
		builders[i] = NewShardBuilder(fc)
	}
	for gid, o := range objs {
		if err := builders[gid%n].AddObject(gid, o.Loc.X, o.Loc.Y, testgen.Keywords(o.Doc)...); err != nil {
			t.Fatal(err)
		}
	}
	out := make([]*ShardIndex, n)
	for i, sb := range builders {
		six, err := sb.Build(opts)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = six
	}
	return out
}

// TestShardPhase1MergeEquivalence: bounds forwarded from the first
// shard's answer never make the other shards' traversals visit more nodes
// or refine more candidates than they do unseeded. That the merged lists
// and thresholds are the single index's is checkInstance's fleet axis.
func TestShardPhase1MergeEquivalence(t *testing.T) {
	idx, objs, users, req := newShardFixture(t)
	for _, n := range []int{2, 4} {
		shards := buildShardSet(t, idx.FrozenCorpus(), objs, n, Options{})
		phase1 := func(six *ShardIndex, seeds []float64) ShardPhase1 {
			t.Helper()
			ss, err := six.NewUnpreparedSession(users, req.K)
			if err != nil {
				t.Fatal(err)
			}
			defer ss.Close()
			ph, err := ss.Phase1(seeds, ParallelOptions{Workers: 3, Groups: 2})
			if err != nil {
				t.Fatal(err)
			}
			return ph
		}
		seeds := make([]float64, len(users))
		for u, list := range phase1(shards[0], nil).PerUser {
			seeds[u] = max(ThresholdFromMerged(list, req.K), 0)
		}
		var unseeded, seeded ShardPhase1
		for _, six := range shards[1:] {
			base, ph := phase1(six, nil), phase1(six, seeds)
			unseeded.Visited, unseeded.Refined = unseeded.Visited+base.Visited, unseeded.Refined+base.Refined
			seeded.Visited, seeded.Refined = seeded.Visited+ph.Visited, seeded.Refined+ph.Refined
		}
		if seeded.Visited > unseeded.Visited || seeded.Refined > unseeded.Refined {
			t.Fatalf("n=%d: seeded shards visited %d nodes and refined %d candidates, unseeded %d and %d",
				n, seeded.Visited, seeded.Refined, unseeded.Visited, unseeded.Refined)
		}
	}
}

// TestMergeNonPositiveK: the merge helpers take any k. A non-positive k
// keeps nothing (nil) and has no k-th score (the "nothing qualifies"
// sentinel), from one list or several; k = 1 keeps the best object.
func TestMergeNonPositiveK(t *testing.T) {
	a := []RankedObject{{ObjectID: 3, Score: 0.9}, {ObjectID: 1, Score: 0.5}}
	b := []RankedObject{{ObjectID: 2, Score: 0.7}}
	for _, tc := range []struct {
		k         int
		lists     [][]RankedObject
		want      []RankedObject
		threshold float64
	}{
		{-1, [][]RankedObject{a}, nil, -math.MaxFloat64},
		{-1, [][]RankedObject{a, b}, nil, -math.MaxFloat64},
		{0, [][]RankedObject{a}, nil, -math.MaxFloat64},
		{0, [][]RankedObject{a, b}, nil, -math.MaxFloat64},
		{1, [][]RankedObject{a}, a[:1], 0.9},
		{1, [][]RankedObject{b, a}, a[:1], 0.9},
	} {
		got := MergeTopK(tc.k, tc.lists...)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("MergeTopK(%d, %d lists) = %+v, want %+v", tc.k, len(tc.lists), got, tc.want)
		}
		if th := ThresholdFromMerged(got, tc.k); th != tc.threshold {
			t.Errorf("ThresholdFromMerged(k=%d, %d lists) = %v, want %v", tc.k, len(tc.lists), th, tc.threshold)
		}
	}
}

// TestShardBuilderValidation covers the shard facade's rejection paths
// and the immutability overrides.
func TestShardBuilderValidation(t *testing.T) {
	idx, objs, users, req := newShardFixture(t)
	fc := idx.FrozenCorpus()

	sb := NewShardBuilder(fc)
	if _, err := sb.Build(Options{}); err == nil {
		t.Fatal("empty shard built")
	}
	if err := sb.AddObject(0, 1, 1, "not-in-vocab"); err == nil {
		t.Fatal("out-of-vocabulary keyword accepted")
	}
	if err := sb.AddObject(-1, 1, 1, "w0"); err == nil {
		t.Fatal("negative global id accepted")
	}
	if err := sb.AddObject(5, 1, 1, "w0"); err != nil {
		t.Fatal(err)
	}
	if err := sb.AddObject(5, 2, 2, "w1"); err != nil {
		t.Fatal(err)
	}
	if _, err := sb.Build(Options{}); err == nil {
		t.Fatal("duplicate global id built")
	}

	shards := buildShardSet(t, fc, objs, 2, Options{})
	if _, err := shards[0].AddObject(1, 1, "w0"); err == nil {
		t.Fatal("shard AddObject succeeded")
	}
	if err := shards[0].DeleteObject(0); err == nil {
		t.Fatal("shard DeleteObject succeeded")
	}
	if _, err := shards[0].UpdateObject(0, 1, 1, "w1"); err == nil {
		t.Fatal("shard UpdateObject succeeded")
	}

	ss, err := shards[0].NewUnpreparedSession(users, req.K)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	rsk := make([]float64, len(users))
	r := req
	r.Strategy = UserIndexed
	if _, _, err := ss.Scatter(r, rsk, []int{0}, 0, 0); err == nil {
		t.Fatal("user-indexed scatter accepted")
	}
	r.Strategy = Exhaustive
	if _, _, err := ss.Scatter(r, rsk, []int{0}, 0, 1); err == nil {
		t.Fatal("exhaustive top-l scatter accepted")
	}
	r.Strategy = Exact
	r.K = req.K + 1
	if _, _, err := ss.Scatter(r, rsk, []int{0}, 0, 0); err == nil {
		t.Fatal("k mismatch accepted")
	}
	r.K = req.K
	if _, _, err := ss.Scatter(r, rsk[:3], []int{0}, 0, 0); err == nil {
		t.Fatal("short threshold vector accepted")
	}
	if _, err := ss.Phase1(rsk[:3], ParallelOptions{}); err == nil {
		t.Fatal("short seed vector accepted")
	}
}

// TestShardIndexRejectsSaveAndCompact: a shard index's file would lose its
// global id map (Load then refuses the freeze point), and Compact would
// rebuild the model over the global build-time object count; both must
// fail as the mutators do.
func TestShardIndexRejectsSaveAndCompact(t *testing.T) {
	idx, objs, _, _ := newShardFixture(t)
	six := buildShardSet(t, idx.FrozenCorpus(), objs, 2, Options{})[0]
	if err := six.Save(filepath.Join(t.TempDir(), "shard.mxbr")); !errors.Is(err, errShardImmutable) {
		t.Fatalf("shard Save: %v, want the immutable-shard error", err)
	}
	if _, err := six.Compact(); !errors.Is(err, errShardImmutable) {
		t.Fatalf("shard Compact: %v, want the immutable-shard error", err)
	}
}
