package maxbrstknn

import (
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/container"
	"repro/internal/core"
)

// shardFixtureObject is one global object kept around in facade terms so
// the test can replay it into shard builders.
type shardFixtureObject struct {
	x, y float64
	kws  []string
}

// newShardFixture builds a global index plus the raw objects, users, and
// request the sharded paths must reproduce it on. One user carries an
// out-of-vocabulary keyword so the unknown-term handling is exercised
// identically on every shard.
func newShardFixture(t *testing.T, opts Options) (*Index, []shardFixtureObject, []UserSpec, Request) {
	t.Helper()
	rng := rand.New(rand.NewSource(47))
	words := []string{"sushi", "noodles", "coffee", "books", "vinyl", "tacos", "ramen", "pizza", "tea", "bagels", "soup", "cake"}
	objs := make([]shardFixtureObject, 300)
	b := NewBuilder()
	for i := range objs {
		kws := []string{words[rng.Intn(len(words))], words[rng.Intn(len(words))], words[rng.Intn(len(words))]}
		objs[i] = shardFixtureObject{x: rng.Float64() * 10, y: rng.Float64() * 10, kws: kws}
		b.AddObject(objs[i].x, objs[i].y, kws...)
	}
	idx, err := b.Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	users := make([]UserSpec, 30)
	for i := range users {
		users[i] = UserSpec{
			X: rng.Float64() * 10, Y: rng.Float64() * 10,
			Keywords: []string{words[rng.Intn(len(words))], words[rng.Intn(len(words))]},
		}
	}
	users[7].Keywords = append(users[7].Keywords, "griffins") // unknown everywhere
	locs := make([][2]float64, 18)
	for i := range locs {
		locs[i] = [2]float64{rng.Float64() * 10, rng.Float64() * 10}
	}
	req := Request{
		Users:            users,
		Locations:        locs,
		Keywords:         words[:6],
		ExistingKeywords: []string{"tea", "griffins"},
		MaxKeywords:      2,
		K:                3,
	}
	return idx, objs, users, req
}

// buildShardSet splits the fixture objects round-robin (adversarial for
// spatial locality — exactness must not depend on the split) into n
// shard indexes under the global frozen context.
func buildShardSet(t *testing.T, fc FrozenCorpus, objs []shardFixtureObject, n int, opts Options) []*ShardIndex {
	t.Helper()
	builders := make([]*ShardBuilder, n)
	for i := range builders {
		builders[i] = NewShardBuilder(fc)
	}
	for gid, o := range objs {
		if err := builders[gid%n].AddObject(gid, o.x, o.y, o.kws...); err != nil {
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

func shardSessions(t *testing.T, shards []*ShardIndex, users []UserSpec, k int) []*Session {
	t.Helper()
	out := make([]*Session, len(shards))
	for i, six := range shards {
		ss, err := six.NewUnpreparedSession(users, k)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ss.Close() })
		out[i] = ss
	}
	return out
}

// splitRoundRobin deals 0..n-1 into parts disjoint assignment sets.
func splitRoundRobin(n, parts int) [][]int {
	out := make([][]int, parts)
	for i := 0; i < n; i++ {
		out[i%parts] = append(out[i%parts], i)
	}
	return out
}

// scanOrdered returns cands in the coordinator's scan order: |LU|
// descending, then location ascending — location alone for an exhaustive
// scan, whose LU is its count.
func scanOrdered(cands []ShardCandidate, exhaustive bool) []ShardCandidate {
	ordered := append([]ShardCandidate(nil), cands...)
	sort.Slice(ordered, func(i, j int) bool {
		if !exhaustive && ordered[i].LU != ordered[j].LU {
			return ordered[i].LU > ordered[j].LU
		}
		return ordered[i].Result.LocationIndex < ordered[j].Result.LocationIndex
	})
	return ordered
}

func shardResult(c ShardCandidate) Result { return c.Result }

// replayBestResults is the coordinator's Run merge: container.FirstMax
// over the union of shard candidates in scan order.
func replayBestResults(cands []ShardCandidate) Result {
	return container.FirstMax(scanOrdered(cands, false), shardResult, Result.Count, Result{LocationIndex: -1})
}

// replayTopLResults is the coordinator's RunTopL merge:
// container.TopByCount over the union in scan order.
func replayTopLResults(cands []ShardCandidate, l int) []Result {
	return container.TopByCount(scanOrdered(cands, false), l, shardResult, Result.Count, func(r Result) int { return r.LocationIndex })
}

// replayExhaustiveResults folds per-location bests in ascending location
// order with the flat Baseline scan's strict first-max.
func replayExhaustiveResults(cands []ShardCandidate) Result {
	return container.FirstMax(scanOrdered(cands, true), shardResult, Result.Count, Result{LocationIndex: -1})
}

// gatherRSK runs unseeded Phase1 on every shard and returns the merged
// per-user lists and the global thresholds they imply.
func gatherRSK(t *testing.T, sessions []*Session, nUsers, k int, par ParallelOptions) ([][]RankedObject, []float64) {
	t.Helper()
	phases := make([]ShardPhase1, len(sessions))
	for i, ss := range sessions {
		ph, err := ss.Phase1(nil, par)
		if err != nil {
			t.Fatal(err)
		}
		phases[i] = ph
	}
	merged := make([][]RankedObject, nUsers)
	rsk := make([]float64, nUsers)
	for u := 0; u < nUsers; u++ {
		lists := make([][]RankedObject, len(phases))
		for i := range phases {
			lists[i] = phases[i].PerUser[u]
		}
		merged[u] = MergeTopK(k, lists...)
		rsk[u] = ThresholdFromMerged(merged[u], k)
	}
	return merged, rsk
}

// TestShardPhase1MergeEquivalence: merging per-shard joint top-k answers
// must reproduce the single index's lists and prepared thresholds exactly
// — unseeded, and again when later shards run with bounds forwarded from
// the first shard's answer, which must also never increase their work.
// The whole index is the fleet of one a single server runs: its merged
// thresholds must equal Prepare's bit for bit.
func TestShardPhase1MergeEquivalence(t *testing.T) {
	idx, objs, users, req := newShardFixture(t, Options{})
	fc := idx.FrozenCorpus()
	sess, err := idx.NewParallelSession(users, req.K, ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	joint, err := sess.Phase1(nil, ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantLists := joint.PerUser
	wantRSK := sess.Thresholds()

	whole, err := idx.NewUnpreparedSession(users, req.K)
	if err != nil {
		t.Fatal(err)
	}
	defer whole.Close()
	_, rsk := gatherRSK(t, []*Session{whole}, len(users), req.K, ParallelOptions{Workers: 3, Groups: 2})
	for u := range users {
		if math.Float64bits(rsk[u]) != math.Float64bits(wantRSK[u]) {
			t.Fatalf("fleet of one, user %d: threshold %v, Prepare's %v", u, rsk[u], wantRSK[u])
		}
	}

	for _, n := range []int{1, 2, 4} {
		shards := buildShardSet(t, fc, objs, n, Options{})
		sessions := shardSessions(t, shards, users, req.K)
		merged, rsk := gatherRSK(t, sessions, len(users), req.K, ParallelOptions{Workers: 3, Groups: 2})
		for u := range users {
			if !reflect.DeepEqual(merged[u], wantLists[u]) {
				t.Fatalf("n=%d user %d: merged top-k differs:\n got %+v\nwant %+v", n, u, merged[u], wantLists[u])
			}
			if rsk[u] != wantRSK[u] {
				t.Fatalf("n=%d user %d: merged threshold %v, single-index %v", n, u, rsk[u], wantRSK[u])
			}
		}
		if n == 1 {
			continue
		}

		// Second wave: shards 1.. run seeded with the bound the first
		// shard's answer establishes. The merged lists must not change,
		// and the seeded traversals must not visit more nodes.
		first, err := sessions[0].Phase1(nil, ParallelOptions{})
		if err != nil {
			t.Fatal(err)
		}
		seeds := make([]float64, len(users))
		for u := range users {
			if th := ThresholdFromMerged(first.PerUser[u], req.K); th > 0 {
				seeds[u] = th
			}
		}
		var unseededVisited, seededVisited int
		lists := make([][][]RankedObject, len(users))
		for u := range users {
			lists[u] = append(lists[u], first.PerUser[u])
		}
		for _, ss := range sessions[1:] {
			base, err := ss.Phase1(nil, ParallelOptions{})
			if err != nil {
				t.Fatal(err)
			}
			unseededVisited += base.Visited
			ph, err := ss.Phase1(seeds, ParallelOptions{})
			if err != nil {
				t.Fatal(err)
			}
			seededVisited += ph.Visited
			for u := range users {
				lists[u] = append(lists[u], ph.PerUser[u])
			}
		}
		for u := range users {
			if got := MergeTopK(req.K, lists[u]...); !reflect.DeepEqual(got, wantLists[u]) {
				t.Fatalf("n=%d user %d: seeded merge differs", n, u)
			}
		}
		if seededVisited > unseededVisited {
			t.Fatalf("n=%d: seeded wave visited %d nodes, unseeded %d", n, seededVisited, unseededVisited)
		}
	}
}

// TestShardScatterServingEquivalence: every strategy the coordinator
// scatters — Run (exact/approx/exhaustive), RunTopL, RunMultiple — must
// come back byte-identical when phase 2 fans out over shard sessions
// under merged global thresholds, with and without a forwarded floor.
func TestShardScatterServingEquivalence(t *testing.T) {
	idx, objs, users, req := newShardFixture(t, Options{})
	fc := idx.FrozenCorpus()
	sess, err := idx.NewParallelSession(users, req.K, ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	for _, n := range []int{2, 4} {
		shards := buildShardSet(t, fc, objs, n, Options{})
		sessions := shardSessions(t, shards, users, req.K)
		_, rsk := gatherRSK(t, sessions, len(users), req.K, ParallelOptions{})
		parts := splitRoundRobin(len(req.Locations), n)

		scatterAll := func(r Request, thresholds []float64, floor, l int) []ShardCandidate {
			var merged []ShardCandidate
			for si, ss := range sessions {
				cands, _, err := ss.Scatter(r, thresholds, parts[si], floor, l)
				if err != nil {
					t.Fatal(err)
				}
				merged = append(merged, cands...)
			}
			return merged
		}

		for _, strat := range []Strategy{Exact, Approx} {
			r := req
			r.Strategy = strat
			r.Parallel = ParallelOptions{Workers: 2}
			want, err := sess.Run(r)
			if err != nil {
				t.Fatal(err)
			}
			if got := replayBestResults(scatterAll(r, rsk, 0, 0)); !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d %v: scattered best differs:\n got %+v\nwant %+v", n, strat, got, want)
			}
			// Bound-forwarded second wave: the already-achieved count as
			// floor must not change the replayed answer.
			if got := replayBestResults(scatterAll(r, rsk, want.Count(), 0)); !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d %v: floored scatter differs", n, strat)
			}
			// Shards skip by the request's l; skipping nothing (l = |L|)
			// must replay to the same list.
			for _, l := range []int{1, 4, len(req.Locations)} {
				wantL, err := sess.RunTopL(r, l)
				if err != nil {
					t.Fatal(err)
				}
				for _, scan := range []int{l, len(req.Locations)} {
					if got := replayTopLResults(scatterAll(r, rsk, 0, scan), l); !reflect.DeepEqual(got, wantL) {
						t.Fatalf("n=%d %v l=%d (shards scan %d): scattered top-l differs:\n got %+v\nwant %+v", n, strat, l, scan, got, wantL)
					}
				}
			}
		}

		r := req
		r.Strategy = Exhaustive
		want, err := sess.Run(r)
		if err != nil {
			t.Fatal(err)
		}
		if got := replayExhaustiveResults(scatterAll(r, rsk, 0, 0)); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: scattered exhaustive differs:\n got %+v\nwant %+v", n, got, want)
		}

		// RunMultiple: m coordinator rounds of the best-replay with
		// threshold poisoning between rounds.
		r = req
		r.Strategy = Exact
		wantM, err := sess.RunMultiple(r, 3)
		if err != nil {
			t.Fatal(err)
		}
		poisoned := append([]float64(nil), rsk...)
		var gotM []Result
		for round := 0; round < 3; round++ {
			best := replayBestResults(scatterAll(r, poisoned, 0, 0))
			if best.Count() == 0 {
				break
			}
			gotM = append(gotM, best)
			for _, uid := range best.UserIDs {
				poisoned[uid] = math.Inf(1)
			}
		}
		if !reflect.DeepEqual(gotM, wantM) {
			t.Fatalf("n=%d: scattered multiple differs:\n got %+v\nwant %+v", n, gotM, wantM)
		}
	}
}

// TestShardTopKMerge: per-shard top-k remapped to global ids and merged
// must equal the single index's answer (scores on this fixture are
// distinct, the documented exactness condition).
func TestShardTopKMerge(t *testing.T) {
	idx, objs, _, _ := newShardFixture(t, Options{})
	fc := idx.FrozenCorpus()
	shards := buildShardSet(t, fc, objs, 3, Options{})
	want, err := idx.TopK(4.2, 5.1, []string{"sushi", "tea"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	lists := make([][]RankedObject, len(shards))
	for i, six := range shards {
		lists[i], err = six.TopK(4.2, 5.1, []string{"sushi", "tea"}, 5)
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := MergeTopK(5, lists...); !reflect.DeepEqual(got, want) {
		t.Fatalf("merged top-k differs:\n got %+v\nwant %+v", got, want)
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
	idx, objs, users, req := newShardFixture(t, Options{})
	fc := idx.FrozenCorpus()

	sb := NewShardBuilder(fc)
	if _, err := sb.Build(Options{}); err == nil {
		t.Fatal("empty shard built")
	}
	if err := sb.AddObject(0, 1, 1, "not-in-vocab"); err == nil {
		t.Fatal("out-of-vocabulary keyword accepted")
	}
	if err := sb.AddObject(-1, 1, 1, "sushi"); err == nil {
		t.Fatal("negative global id accepted")
	}
	if err := sb.AddObject(5, 1, 1, "sushi"); err != nil {
		t.Fatal(err)
	}
	if err := sb.AddObject(5, 2, 2, "tea"); err != nil {
		t.Fatal(err)
	}
	if _, err := sb.Build(Options{}); err == nil {
		t.Fatal("duplicate global id built")
	}

	shards := buildShardSet(t, fc, objs, 2, Options{})
	if _, err := shards[0].AddObject(1, 1, "sushi"); err == nil {
		t.Fatal("shard AddObject succeeded")
	}
	if err := shards[0].DeleteObject(0); err == nil {
		t.Fatal("shard DeleteObject succeeded")
	}
	if _, err := shards[0].UpdateObject(0, 1, 1, "tea"); err == nil {
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
	idx, objs, _, _ := newShardFixture(t, Options{})
	six := buildShardSet(t, idx.FrozenCorpus(), objs, 2, Options{})[0]
	if err := six.Save(filepath.Join(t.TempDir(), "shard.mxbr")); !errors.Is(err, errShardImmutable) {
		t.Fatalf("shard Save: %v, want the immutable-shard error", err)
	}
	if _, err := six.Compact(); !errors.Is(err, errShardImmutable) {
		t.Fatalf("shard Compact: %v, want the immutable-shard error", err)
	}
}

// TestScatterOnWholeIndex: the fleet of one a single server runs — an
// unprepared session on the whole index under thresholds merged from its
// own Phase1 — answers Run for every strategy (the Section 7 method
// included, as its one candidate) and RunTopL for every l, and its top-l
// scan evaluates exactly the locations RunTopL's does.
func TestScatterOnWholeIndex(t *testing.T) {
	idx, _, users, req := newShardFixture(t, Options{})
	sess, err := idx.NewSession(users, req.K)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	whole, err := idx.NewUnpreparedSession(users, req.K)
	if err != nil {
		t.Fatal(err)
	}
	defer whole.Close()
	_, rsk := gatherRSK(t, []*Session{whole}, len(users), req.K, ParallelOptions{})
	all := splitRoundRobin(len(req.Locations), 1)[0]

	for _, strat := range []Strategy{Exact, Approx, Exhaustive, UserIndexed} {
		r := req
		r.Strategy = strat
		want, err := sess.Run(r)
		if err != nil {
			t.Fatal(err)
		}
		cands, _, err := whole.Scatter(r, rsk, all, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		var got Result
		switch strat {
		case UserIndexed:
			got = cands[0].Result
		case Exhaustive:
			got = replayExhaustiveResults(cands)
		default:
			got = replayBestResults(cands)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: scatter differs from Run:\n got %+v\nwant %+v", strat, got, want)
		}
	}

	for _, ws := range []int{0, 2} {
		for _, l := range []int{1, 3, len(req.Locations)} {
			r := req
			r.MaxKeywords = ws
			want, err := sess.RunTopL(r, l)
			if err != nil {
				t.Fatal(err)
			}
			cands, st, err := whole.Scatter(r, rsk, all, 0, l)
			if err != nil {
				t.Fatal(err)
			}
			if got := replayTopLResults(cands, l); !reflect.DeepEqual(got, want) {
				t.Fatalf("ws=%d l=%d: scattered top-l differs:\n got %+v\nwant %+v", ws, l, got, want)
			}
			q, err := sess.buildQuery(r)
			if err != nil {
				t.Fatal(err)
			}
			_, ref, err := sess.engine.Scan(q, sess.th, core.ScanSpec{Mode: core.ScanTopL, L: l})
			if err != nil {
				t.Fatal(err)
			}
			if st != ref {
				t.Fatalf("ws=%d l=%d: scatter work %+v, RunTopL's scan %+v", ws, l, st, ref)
			}
		}
	}
}
