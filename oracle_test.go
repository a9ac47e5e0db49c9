package maxbrstknn

import (
	"cmp"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/testgen"
	"repro/internal/vocab"
)

// The one differential check every answer path is held to. The oracle
// computes the paper's definition by plain enumeration: each user's RSk(u)
// from the exact Scorer.STS of every live object, and the maximum over
// every candidate location × every candidate-keyword subset. It shares
// only textrel.Scorer (Equations 1–3) and the request mapping (buildQuery,
// docFromKeywords) with the system: no tree, bound, pruning, cache,
// traversal or scan code. checkInstance holds a random instance's answers
// at the reference configuration (sequential, built in memory, one index,
// default cache) to the oracle, and the answers at its drawn configuration
// point to the reference's.

// oracleSeeds are TestOracleDifferential's instances and FuzzOracle's
// corpus.
var oracleSeeds = func() (seeds []int64) {
	for seed := range int64(300) {
		seeds = append(seeds, seed)
	}
	return seeds
}()

func TestOracleDifferential(t *testing.T) {
	for _, seed := range oracleSeeds {
		checkInstance(t, seed)
	}
}

// FuzzOracle draws instances past the seeds. A plain test run skips it:
// TestOracleDifferential already checks its corpus.
func FuzzOracle(f *testing.F) {
	for _, seed := range oracleSeeds {
		f.Add(seed)
	}
	if flag.Lookup("test.fuzz").Value.String() == "" {
		f.Skip("the seed corpus is TestOracleDifferential's; run with -fuzz FuzzOracle")
	}
	f.Fuzz(checkInstance)
}

// The axes of checkInstance one at a time, under the names of the
// pairwise suites they replace: each checks the next instances past
// oracleSeeds that exercise its axis.

func TestStrategiesAgreeOnRandomInstances(t *testing.T) {
	checkAxis(t, func(in *instance) bool { return in.reqs[0].MaxKeywords > 1 })
}
func TestParallelFacadeEquivalence(t *testing.T) {
	checkAxis(t, func(in *instance) bool { return in.cfg.par.Workers > 1 })
}
func TestParallelSessionThresholds(t *testing.T) {
	checkAxis(t, func(in *instance) bool { return in.cfg.par.Groups > 1 })
}
func TestDecodedCacheEquivalence(t *testing.T) {
	checkAxis(t, func(in *instance) bool { return in.cfg.cacheOff || in.cfg.storage == 2 })
}
func TestSaveLoadRoundTrip(t *testing.T) {
	checkAxis(t, func(in *instance) bool { return in.cfg.storage > 0 })
}
func TestJointTopKAll(t *testing.T) { checkAxis(t, func(in *instance) bool { return in.k > 1 }) }
func TestRunTopL(t *testing.T) {
	checkAxis(t, func(in *instance) bool { return len(in.reqs[0].Locations) > 2 })
}
func TestRunMultiple(t *testing.T) {
	checkAxis(t, func(in *instance) bool { return len(in.users) > 3 })
}
func TestScatterOnWholeIndex(t *testing.T) {
	checkAxis(t, func(in *instance) bool { return in.cfg.shards == 1 && in.cfg.par.Workers <= 1 })
}
func TestShardScatterServingEquivalence(t *testing.T) {
	checkAxis(t, func(in *instance) bool { return in.cfg.shards > 1 })
}
func TestShardTopKMerge(t *testing.T) {
	checkAxis(t, func(in *instance) bool { return in.cfg.shards == 3 })
}

// checkAxis checks the first four instances from seed 1000 on that have
// the property.
func checkAxis(t *testing.T, has func(*instance) bool) {
	for seed, n := int64(1000), 0; n < 4; seed++ {
		if has(drawInstance(seed)) {
			checkInstance(t, seed)
			n++
		}
	}
}

// instance is one random problem: objects, index options, a write history
// (possibly empty), a user cohort with its k, two requests, and the
// configuration point it also runs at.
type instance struct {
	objects []dataset.Object
	opts    Options
	script  []testgen.Write
	users   []UserSpec
	k       int
	reqs    []Request
	cfg     struct {
		par      ParallelOptions
		cacheOff bool // build with the decoded cache disabled
		storage  int  // 0 built in memory, 1 Save→Load, 2 Save→Load with no decoded cache
		compact  int  // 0 never, 1 mid-history (before the Save), 2 after the whole history, 3 both
		shards   int  // > 1 only without a write history
	}
}

// drawInstance is testgen's draw seed in facade terms, under testgen's
// term names, and a configuration point drawn from a second stream.
func drawInstance(seed int64) *instance {
	d := testgen.Draw(seed)
	in := &instance{objects: d.Corpus, script: d.Script, k: d.K, opts: Options{Measure: Measure(d.Measure), Alpha: d.Alpha,
		ExplicitAlpha: true, Lambda: d.Lambda, ExplicitLambda: true, Fanout: d.Fanout}}
	for _, u := range d.Users {
		in.users = append(in.users, UserSpec{X: u.Loc.X, Y: u.Loc.Y, Keywords: testgen.Keywords(u.Doc)})
	}
	for _, q := range d.Queries {
		req := Request{Users: in.users, K: in.k, ExistingKeywords: testgen.Keywords(q.OxDoc), MaxKeywords: q.WS}
		for _, t := range q.W {
			req.Keywords = append(req.Keywords, testgen.Name(t))
		}
		for _, p := range q.Locations {
			req.Locations = append(req.Locations, [2]float64{p.X, p.Y})
		}
		in.reqs = append(in.reqs, req)
	}
	rng := rand.New(rand.NewSource(-1 - seed))
	in.cfg.par = ParallelOptions{Workers: []int{0, 1, 2, 4}[rng.Intn(4)], Groups: []int{0, 1, len(in.users)}[rng.Intn(3)]}
	in.cfg.cacheOff, in.cfg.storage, in.cfg.compact, in.cfg.shards = !d.Cached, rng.Intn(3), rng.Intn(4), 1
	if in.script == nil {
		in.cfg.shards = min(1+rng.Intn(3), len(in.objects))
	}
	if in.cfg.shards > 1 { // a shard index is neither saved nor compacted
		in.cfg.storage, in.cfg.compact = 0, 0
	}
	return in
}

// options returns the index options, with the decoded cache disabled when
// cacheOff.
func (in *instance) options(cacheOff bool) Options {
	opts := in.opts
	if cacheOff {
		opts.DecodedCacheBytes = -1
	}
	return opts
}

// build builds the instance's objects.
func (in *instance) build(t testing.TB, cacheOff bool) *Index {
	t.Helper()
	b := NewBuilder()
	for _, o := range in.objects {
		b.AddObject(o.Loc.X, o.Loc.Y, testgen.Keywords(o.Doc)...)
	}
	ix, err := b.Build(in.options(cacheOff))
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// mutate applies ops to ix and returns the live ids after them. A delete
// leaves at least one object.
func mutate(t testing.TB, ix *Index, live []int, ops []testgen.Write) []int {
	t.Helper()
	for _, m := range ops {
		j, p, kws := m.Pick%len(live), m.Object.Loc, testgen.Keywords(m.Object.Doc)
		var err error
		switch {
		case m.Op == testgen.Insert:
			var id int
			id, err = ix.AddObject(p.X, p.Y, kws...)
			live = append(live, id)
		case m.Op == testgen.Update:
			live[j], err = ix.UpdateObject(live[j], p.X, p.Y, kws...)
		case m.Op == testgen.Delete && len(live) > 1:
			err = ix.DeleteObject(live[j])
			live = slices.Delete(live, j, j+1)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return live
}

// indexes returns the reference index, with the whole write history
// applied in memory, and the configured indexes: one index — its history
// split around the Save and Load, and compacted before the Save, after
// the whole history, or both — or the shards of a fleet, built
// round-robin (no spatial locality to lean on) under the reference's
// frozen corpus.
func (in *instance) indexes(t testing.TB) (ref *Index, configured []*Index) {
	t.Helper()
	live := make([]int, len(in.objects))
	for i := range live {
		live[i] = i
	}
	ref = in.build(t, false)
	mutate(t, ref, slices.Clone(live), in.script)
	if in.cfg.shards > 1 {
		for _, six := range buildShardSet(t, ref.FrozenCorpus(), in.objects, in.cfg.shards, in.options(in.cfg.cacheOff)) {
			configured = append(configured, six.Index)
		}
		return ref, configured
	}
	compact := func(ix *Index) *Index {
		t.Helper()
		c, err := ix.Compact()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	ix := in.build(t, in.cfg.cacheOff)
	live = mutate(t, ix, live, in.script[:len(in.script)/2])
	if in.cfg.compact&1 != 0 {
		// Compact renumbers the live objects densely in id order: each
		// live id becomes its rank among them.
		ix = compact(ix)
		sorted := slices.Sorted(slices.Values(live))
		for i, id := range live {
			live[i], _ = slices.BinarySearch(sorted, id)
		}
	}
	if in.cfg.storage > 0 {
		path := filepath.Join(t.TempDir(), "oracle.mxbr")
		if err := ix.Save(path); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadWithOptions(path, LoadOptions{DecodedCacheBytes: int64(1 - in.cfg.storage)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { loaded.Close() })
		ix = loaded
	}
	mutate(t, ix, live, in.script[len(in.script)/2:])
	if in.cfg.compact&2 != 0 {
		ix = compact(ix)
	}
	return ref, []*Index{ix}
}

// answers maps a label to what the system answered.
type answers map[string]any

// label names one answer: request ri, the query (run, topl, topl-work,
// multiple), the strategy and the list length.
func label(ri int, query string, st Strategy, l int) string {
	return fmt.Sprintf("req%d/%s/%v/%d", ri, query, st, l)
}

// topLs are the shortlist lengths asked of a request: one, two, and more
// than every location.
func topLs(req Request) []int { return []int{1, 2, len(req.Locations) + 1} }

// keywordMethods maps the strategies RunTopL and RunMultiple accept to
// their keyword methods.
var keywordMethods = map[Strategy]core.KeywordMethod{Exact: core.KeywordsExact, Approx: core.KeywordsApprox}

// sessionAnswers answers every request through one Session: Run under
// every strategy; RunTopL, its scan's work (sequential, so comparable)
// and RunMultiple under Exact and Approx.
func (in *instance) sessionAnswers(t testing.TB, ix *Index, par ParallelOptions) answers {
	t.Helper()
	s, err := ix.newSession(in.users, in.k, par)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a := answers{"thresholds": s.Thresholds()}
	put := func(label string, v any, err error) {
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		a[label] = v
	}
	for ri, req := range in.reqs {
		req.Parallel = par
		for _, st := range []Strategy{Exact, Approx, Exhaustive, UserIndexed} {
			req.Strategy = st
			r, err := s.Run(req)
			put(label(ri, "run", st, 0), r, err)
			method, ok := keywordMethods[st]
			if !ok {
				continue
			}
			q, err := s.buildQuery(req)
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range topLs(req) {
				list, err := s.RunTopL(req, l)
				put(label(ri, "topl", st, l), list, err)
				_, work, err := s.engine.Scan(q, s.th, core.ScanSpec{Method: method, Mode: core.ScanTopL, L: l})
				put(label(ri, "topl-work", st, l), work, err)
			}
			rounds, err := s.RunMultiple(req, 3)
			put(label(ri, "multiple", st, 3), rounds, err)
		}
	}
	return a
}

// fleetAnswers answers every request as the coordinator does over shards:
// Phase1 on the largest shard, then on the rest seeded with its k-th best
// scores; thresholds from the merged lists; Scatter over round-robin
// location shares, shard 0 first, its best count flooring the others'
// single-best scans; and the candidates, in scan order, reduced as Run,
// RunTopL and RunMultiple reduce them. A fleet of one whole index also
// answers UserIndexed, and its top-l work (when sequential) is RunTopL's.
// The merged phase-1 lists come back under "phase1".
func (in *instance) fleetAnswers(t testing.TB, shards []*Index, par ParallelOptions) answers {
	t.Helper()
	sessions := make([]*Session, len(shards))
	primary := 0
	for i, ix := range shards {
		s, err := ix.NewUnpreparedSession(in.users, in.k)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		sessions[i] = s
		if ix.NumObjects() > shards[primary].NumObjects() {
			primary = i
		}
	}
	phases := make([]ShardPhase1, len(shards))
	phase1 := func(i int, seeds []float64) {
		var err error
		if phases[i], err = sessions[i].Phase1(seeds, par); err != nil {
			t.Fatal(err)
		}
	}
	phase1(primary, nil)
	seeds := make([]float64, len(in.users))
	for u, list := range phases[primary].PerUser {
		seeds[u] = max(ThresholdFromMerged(list, in.k), 0)
	}
	for i := range sessions {
		if i != primary {
			phase1(i, seeds)
		}
	}
	rsk, merged := make([]float64, len(in.users)), make([][]RankedObject, len(in.users))
	for u := range rsk {
		lists := make([][]RankedObject, len(phases))
		for i := range phases {
			lists[i] = phases[i].PerUser[u]
		}
		merged[u] = MergeTopK(in.k, lists...)
		rsk[u] = ThresholdFromMerged(merged[u], in.k)
	}

	scatter := func(req Request, th []float64, l int) ([]ShardCandidate, ScatterStats) {
		var all []ShardCandidate
		var work ScatterStats
		floor := 0
		for i, s := range sessions {
			var share []int
			for li := i; li < len(req.Locations); li += len(sessions) {
				share = append(share, li)
			}
			cands, st, err := s.Scatter(req, th, share, floor, l)
			if err != nil {
				t.Fatal(err)
			}
			work.Assigned, work.Evaluated, work.SkippedFloor = work.Assigned+st.Assigned, work.Evaluated+st.Evaluated, work.SkippedFloor+st.SkippedFloor
			for _, c := range cands {
				if l == 0 && i == 0 {
					floor = max(floor, c.Result.Count())
				}
				all = append(all, c)
			}
		}
		sort.SliceStable(all, func(i, j int) bool {
			if req.Strategy != Exhaustive && all[i].LU != all[j].LU {
				return all[i].LU > all[j].LU
			}
			return all[i].Result.LocationIndex < all[j].Result.LocationIndex
		})
		return all, work
	}
	result := func(c ShardCandidate) Result { return c.Result }
	best := func(req Request, th []float64) Result {
		cands, _ := scatter(req, th, 0)
		if req.Strategy == UserIndexed {
			return cands[0].Result // the whole index's one answer, pruning statistics included
		}
		return container.FirstMax(cands, result, Result.Count, Result{LocationIndex: -1})
	}

	a := answers{"thresholds": rsk, "phase1": merged}
	whole := len(shards) == 1 && shards[0].gids == nil
	for ri, req := range in.reqs {
		req.Parallel = par
		for _, st := range []Strategy{Exact, Approx, Exhaustive, UserIndexed} {
			if st == UserIndexed && !whole {
				continue
			}
			req.Strategy = st
			a[label(ri, "run", st, 0)] = best(req, rsk)
			if _, ok := keywordMethods[st]; !ok {
				continue
			}
			for _, l := range topLs(req) {
				cands, work := scatter(req, rsk, l)
				a[label(ri, "topl", st, l)] = container.TopByCount(cands, l, result, Result.Count, func(r Result) int { return r.LocationIndex })
				if whole && par.Workers <= 1 {
					a[label(ri, "topl-work", st, l)] = work
				}
			}
			rounds, err := Cover(3, rsk, func(th []float64) (Result, error) { return best(req, th), nil })
			if err != nil {
				t.Fatal(err)
			}
			a[label(ri, "multiple", st, 3)] = rounds
		}
	}
	return a
}

// checkTopK holds every user's TopK list — from one index, or from a
// fleet merged with MergeTopK — to the oracle's on index of, twice (see
// warm).
func (in *instance) checkTopK(t testing.TB, ixs []*Index, of *Index, fail func(string, ...any)) {
	t.Helper()
	got := warm(t, ixs, func() (out [][]RankedObject) {
		for _, u := range in.users {
			lists := make([][]RankedObject, len(ixs))
			for i, ix := range ixs {
				var err error
				if lists[i], err = ix.TopK(u.X, u.Y, u.Keywords, in.k); err != nil {
					t.Fatal(err)
				}
			}
			out = append(out, MergeTopK(in.k, lists...))
		}
		return out
	})
	for ui, u := range in.users {
		if w := oracleTopK(of, u, in.k); !reflect.DeepEqual(got[ui], w) {
			fail("TopK of user %d (%+v): %v, the oracle's %v", ui, u, got[ui], w)
		}
	}
}

// warm answers twice through pass: the second pass must answer the same,
// and on a cached index decode nothing the first did not. A cached index
// must hit its decoded cache; a disabled cache must record no traffic.
func warm[T any](t testing.TB, ixs []*Index, pass func() T) T {
	t.Helper()
	traffic := func() (cached bool, hits, misses int64) {
		for _, ix := range ixs {
			cs := ix.CacheStats()
			cached, hits, misses = cs.DecodedCapBytes > 0, hits+cs.DecodedHits, misses+cs.DecodedMisses
		}
		return cached, hits, misses
	}
	first := pass()
	_, _, missed := traffic()
	if second := pass(); !reflect.DeepEqual(second, first) {
		t.Fatalf("a second pass answered %+v, the first %+v", second, first)
	}
	switch cached, hits, misses := traffic(); {
	case cached && misses != missed:
		t.Fatalf("the second pass missed the decoded cache %d times", misses-missed)
	case cached && hits == 0:
		t.Fatal("a cached index never hit its decoded cache")
	case !cached && hits+misses != 0:
		t.Fatalf("a disabled decoded cache recorded %d hits and %d misses", hits, misses)
	}
	return first
}

// checkInstance runs instance seed at the reference configuration and at
// its configuration point, and holds the answers to the oracle.
func checkInstance(t *testing.T, seed int64) {
	in := drawInstance(seed)
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d (%+v, %d objects, %d mutations, %d users, k=%d): %s",
			seed, in.cfg, len(in.objects), len(in.script), len(in.users), in.k, fmt.Sprintf(format, args...))
	}
	ref, configured := in.indexes(t)
	in.addTie(t, ref)
	want := in.checkOracle(t, ref, fail)

	// Every configured path answers as the reference does, but for the
	// pruning statistics of a compacted index, whose tree has another
	// shape. Object ids are the configured index's: a compacted index
	// renumbers its objects, and a fleet reports the whole index's.
	whole := ref
	if in.cfg.shards == 1 {
		whole = configured[0]
	}
	o := newOracle(t, whole, in.users, in.k)
	same := func(path string, got answers) {
		t.Helper()
		if lists, ok := got["phase1"]; ok && !reflect.DeepEqual(lists, o.top) {
			fail("%s: merged phase-1 lists %v, the oracle's %v", path, lists, o.top)
		}
		delete(got, "phase1")
		for label, g := range got {
			w, ok := want[label]
			if r, isResult := g.(Result); ok && isResult && in.cfg.compact != 0 {
				wr := w.(Result)
				r.Stats, wr.Stats = PruningStats{}, PruningStats{}
				g, w = r, wr
			}
			if !ok || !reflect.DeepEqual(g, w) {
				fail("%s %s: %+v, the reference answered %+v", path, label, g, w)
			}
		}
	}
	if in.cfg.shards == 1 {
		same("session", warm(t, configured, func() answers { return in.sessionAnswers(t, configured[0], in.cfg.par) }))
	}
	same("fleet", warm(t, configured, func() answers { return in.fleetAnswers(t, configured, in.cfg.par) }))
	in.checkTopK(t, configured, whole, fail)
}

// addTie adds a request on which user 0 ties RSk(u) bit for bit, when
// ix holds k objects: ox at the location of user 0's k-th object in the
// oracle's ranking on ix, with that object's keywords and no candidate
// keywords, so ox scores exactly as the object does. It draws nothing
// from testgen's stream, so no seed's instance moves.
func (in *instance) addTie(t testing.TB, ix *Index) {
	t.Helper()
	top := newOracle(t, ix, in.users, in.k).top[0]
	if len(top) < in.k {
		return
	}
	sn := ix.snap.Load()
	o := sn.tree.Dataset().Objects[top[in.k-1].ObjectID]
	var kws []string
	o.Doc.ForEach(func(tm vocab.TermID, f int32) {
		for range f {
			kws = append(kws, sn.vocab.Term(tm))
		}
	})
	in.reqs = append(in.reqs, Request{Users: in.users, K: in.k, Locations: [][2]float64{{o.Loc.X, o.Loc.Y}}, ExistingKeywords: kws})
}

// checkOracle answers in's requests on ix sequentially, twice, and holds
// the answers and every user's TopK list to the oracle. It returns the
// answers.
func (in *instance) checkOracle(t testing.TB, ix *Index, fail func(string, ...any)) answers {
	t.Helper()
	a := warm(t, []*Index{ix}, func() answers { return in.sessionAnswers(t, ix, ParallelOptions{}) })
	newOracle(t, ix, in.users, in.k).check(in, a, fail)
	in.checkTopK(t, []*Index{ix}, ix, fail)
	return a
}

// checkAgainstOracle holds idx's answers to req, and its users' top-k
// lists, to the oracle.
func checkAgainstOracle(t *testing.T, idx *Index, req Request) {
	t.Helper()
	(&instance{users: req.Users, k: req.K, reqs: []Request{req}}).checkOracle(t, idx, t.Fatalf)
}

// oracle is the brute-force reference for one user cohort on one index
// snapshot. Its session is unprepared: it lends the cohort's users, scorer
// and request mapping, and runs no phase of the system. top holds each
// user's exact top-k under the session's scorer, rsk their k-th score.
type oracle struct {
	s     *Session
	norms []float64
	top   [][]RankedObject
	rsk   []float64
}

func newOracle(t testing.TB, ix *Index, users []UserSpec, k int) *oracle {
	t.Helper()
	s, err := ix.NewUnpreparedSession(users, k)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	o := &oracle{s: s}
	for _, u := range s.users {
		norm := s.engine.Scorer.Norm(u.Doc)
		top := ranked(ix, s.snap, s.engine.Scorer.STS, u.Loc, u.Doc, norm, k)
		rsk := -math.MaxFloat64
		if len(top) == k {
			rsk = top[k-1].Score
		}
		o.norms, o.top, o.rsk = append(o.norms, norm), append(o.top, top), append(o.rsk, rsk)
	}
	return o
}

// ranked returns the k best live objects of sn for a user by exact score,
// descending, then by ascending id: a bounded list, each object inserted
// at its rank.
func ranked(ix *Index, sn *snapshot, sts func(geo.Point, vocab.Doc, geo.Point, vocab.Doc, float64) float64, p geo.Point, doc vocab.Doc, norm float64, k int) []RankedObject {
	var top []RankedObject
	for _, o := range sn.tree.Dataset().Objects {
		if sn.isDeleted(o.ID) {
			continue
		}
		r := RankedObject{ObjectID: ix.globalID(o.ID), Score: sts(o.Loc, o.Doc, p, doc, norm)}
		if i, _ := slices.BinarySearchFunc(top, r, func(a, b RankedObject) int {
			return cmp.Or(cmp.Compare(b.Score, a.Score), cmp.Compare(a.ObjectID, b.ObjectID))
		}); i < k {
			top = slices.Insert(top, i, r)[:min(k, len(top)+1)]
		}
	}
	return top
}

// oracleTopK is Index.TopK's exact answer for user u.
func oracleTopK(ix *Index, u UserSpec, k int) []RankedObject {
	sn := ix.snap.Load()
	p := geo.Point{X: u.X, Y: u.Y}
	sc := ix.scorerFor(sn, geo.RectFromPoint(p))
	doc := sn.docFromKeywords(u.Keywords, nil)
	return ranked(ix, sn, sc.STS, p, doc, sc.Norm(doc), k)
}

// reached returns the users, ascending, whose top-k the new object enters
// at location li with document doc (STS ≥ RSk(u)), less the covered.
func (o *oracle) reached(q core.Query, li int, doc vocab.Doc, covered map[int]bool) []int {
	var users []int
	for ui, u := range o.s.users {
		if !covered[ui] && o.s.engine.Scorer.STS(q.Locations[li], doc, u.Loc, u.Doc, o.norms[ui]) >= o.rsk[ui] {
			users = append(users, ui)
		}
	}
	return users
}

// best returns the largest count over every location × every subset of
// the query's candidate keywords of size ≤ ws (best≤), or of size exactly
// ws (best=, the Section 4 baseline's space). It enumerates those subsets
// alone, each extending a smaller one by a later keyword.
func (o *oracle) best(q core.Query, exactlyWS bool) int {
	best := 0
	var add []vocab.TermID
	var grow func(from int)
	grow = func(from int) {
		if !exactlyWS || len(add) == q.WS {
			for li := range q.Locations {
				best = max(best, len(o.reached(q, li, q.OxDoc.MergeTerms(add), nil)))
			}
		}
		for i := from; i < len(q.Keywords) && len(add) < q.WS; i++ {
			add = append(add, q.Keywords[i])
			grow(i + 1)
			add = add[:len(add)-1]
		}
	}
	grow(0)
	return best
}

// check holds answers a to the oracle.
func (o *oracle) check(in *instance, a answers, fail func(string, ...any)) {
	if th := a["thresholds"].([]float64); !slices.EqualFunc(th, o.rsk, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
		fail("thresholds %v, the oracle's RSk %v", th, o.rsk)
	}
	for ri, req := range in.reqs {
		q, err := o.s.buildQuery(req)
		if err != nil {
			fail("req%d: %v", ri, err)
		}
		upTo, exactly := o.best(q, false), o.best(q, true)
		if o.s.engine.Scorer.Model.AdditionMonotone() && exactly != upTo {
			fail("req%d: adding keywords never hurts under %s, yet best= %d, best≤ %d", ri, in.opts.Measure.kind(), exactly, upTo)
		}
		// answer checks one answer: a candidate location with at most ws
		// keywords, whose users are exactly those it reaches, less the
		// covered — or location −1, when best is 0.
		answer := func(label string, r Result, best int, covered map[int]bool) {
			if r.LocationIndex < 0 {
				if best != 0 || r.Count() != 0 {
					fail("%s: no location (%+v), yet %d users are reachable", label, r, best)
				}
				return
			}
			var add []vocab.TermID
			for _, kw := range r.Keywords {
				id, _ := o.s.snap.vocab.Lookup(kw)
				add = append(add, id)
			}
			if r.Location != req.Locations[r.LocationIndex] || len(r.Keywords) > q.WS {
				fail("%s: %+v is not an answer to %+v", label, r, req)
			}
			if want := o.reached(q, r.LocationIndex, q.OxDoc.MergeTerms(add), covered); !slices.Equal(r.UserIDs, want) {
				fail("%s: users %v, the oracle's recount %v", label, r.UserIDs, want)
			}
		}
		for st, want := range []int{Exact: upTo, Approx: upTo, Exhaustive: exactly, UserIndexed: upTo} {
			st := Strategy(st)
			r := a[label(ri, "run", st, 0)].(Result)
			if st == Approx && r.Count() > upTo || st != Approx && r.Count() != want {
				fail("req%d %v: count %d, the oracle's %d (best≤ %d, best= %d)", ri, st, r.Count(), want, upTo, exactly)
			}
			if st == Approx {
				// The greedy selection may win nobody: it stops once its
				// optimistic per-keyword lists are covered, and a user two
				// keywords win together is won by neither alone.
				want = r.Count()
			}
			answer(label(ri, "run", st, 0), r, want, nil)
		}
		ps := a[label(ri, "run", UserIndexed, 0)].(Result).Stats
		if ps.TotalUsers != len(in.users) || ps.ResolvedUsers > ps.TotalUsers || ps.PrunedPercent < 0 || ps.PrunedPercent > 100 {
			fail("req%d: pruning statistics %+v over %d users", ri, ps, len(in.users))
		}
		// The Section 7 method under the greedy selection, which only the
		// experiments run, never beats the maximum either.
		if _, _, err := o.s.runUserIndexed(q); err != nil { // builds the session's MIUR-tree
			fail("req%d: %v", ri, err)
		}
		if sel, _, err := o.s.engine.SelectUserIndexed(q, core.KeywordsApprox, o.s.miur); err != nil || sel.Count() > upTo {
			fail("req%d: user-indexed approx count %d (%v), the oracle's best %d", ri, sel.Count(), err, upTo)
		}

		for _, st := range []Strategy{Exact, Approx} {
			run := a[label(ri, "run", st, 0)].(Result)
			// A ranked list's head has Run's count: among equal counts Run
			// keeps the first in scan order, RunTopL ranks by location.
			for _, l := range topLs(req) {
				lbl := label(ri, "topl", st, l)
				list, seen := a[lbl].([]Result), map[int]bool{}
				if len(list) == 0 && run.LocationIndex >= 0 || len(list) > 0 && list[0].Count() != run.Count() {
					fail("%s: %+v, Run answered %+v", lbl, list, run)
				}
				for i, r := range list {
					if i >= l || i > 0 && r.Count() > list[i-1].Count() || seen[r.LocationIndex] {
						fail("%s: %+v is not a ranked list of at most %d distinct locations", lbl, list, l)
					}
					seen[r.LocationIndex] = true
					answer(lbl, r, 1, nil)
				}
			}
			// The first greedy round is Run's answer; each later one wins
			// only users no earlier round won.
			lbl := label(ri, "multiple", st, 3)
			rounds, covered := a[lbl].([]Result), map[int]bool{}
			if len(rounds) == 0 && run.LocationIndex >= 0 || len(rounds) > 0 && !reflect.DeepEqual(rounds[0], run) {
				fail("%s: %+v, Run answered %+v", lbl, rounds, run)
			}
			for _, r := range rounds {
				answer(lbl, r, 1, covered)
				for _, u := range r.UserIDs {
					covered[u] = true
				}
			}
		}
	}
}
