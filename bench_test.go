// Benchmarks: every experiment of the paper's evaluation (Section 8) at
// smoke scale, and the library-level twins of bench/'s serving workloads
// (README, "Reproducing the paper's evaluation" and "Benchmarks").
package maxbrstknn

import (
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/irtree"
	"repro/internal/vocab"
)

// BenchmarkExperiments runs each entry of experiments.All at Quick()
// scale: one op regenerates the experiment's tables, as
// `benchrunner -exp <name> -quick` prints them.
func BenchmarkExperiments(b *testing.B) {
	cfg := experiments.Quick()
	for _, e := range experiments.All() {
		b.Run(e.Name, func(b *testing.B) {
			for b.Loop() {
				if _, err := e.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIndexBuild measures MIR-tree construction (index build cost,
// discussed in the paper's Section 5.1 cost analysis): irtree.Build over
// 5,000 generated objects at the default fanout.
func BenchmarkIndexBuild(b *testing.B) {
	cfg := experiments.Quick()
	cfg.NumObjects = 5000
	w := experiments.NewWorkload(cfg, 0)
	tc := irtree.Config{Kind: irtree.MIRTree, Fanout: cfg.Fanout}
	b.ReportAllocs()
	for b.Loop() {
		irtree.Build(w.DS, w.Scorer.Model, tc)
	}
}

// docKeywords expands a generated document back into keyword strings, one
// per occurrence (indexutil.KeywordStrings, which imports this package and
// so cannot be imported from it).
func docKeywords(v *vocab.Vocabulary, d vocab.Doc) []string {
	out := make([]string, 0, d.Len())
	d.ForEach(func(t vocab.TermID, f int32) {
		for ; f > 0; f-- {
			out = append(out, v.Term(t))
		}
	})
	return out
}

// replay adds ds's objects, in id order, to a new Builder, as
// indexutil.BuilderFromDataset does.
func replay(ds *dataset.Dataset) *Builder {
	bld := NewBuilder()
	for _, o := range ds.Objects {
		bld.AddObject(o.Loc.X, o.Loc.Y, docKeywords(ds.Vocab, o.Doc)...)
	}
	return bld
}

// coldFileIndex builds the system bench/ runs topk-ingest on: 20,000
// generated objects, saved and loaded back file-backed with a 1 MiB
// decoded cache, far smaller than the index, so reads miss.
func coldFileIndex(b *testing.B) (*Index, *dataset.Dataset) {
	b.Helper()
	ds := dataset.GenerateFlickr(dataset.DefaultFlickrConfig(20000))
	built, err := replay(ds).Build(Options{})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "index.mxbr")
	if err := built.Save(path); err != nil {
		b.Fatal(err)
	}
	built.Close()
	idx, err := LoadWithOptions(path, LoadOptions{DecodedCacheBytes: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { idx.Close() })
	return idx, ds
}

// BenchmarkIngest_Cycle measures the write path of the topk-ingest
// workload at the library: one operation is an add, an update of the added
// object and a delete of its replacement, each a copy-on-write mutation
// that rewrites a leaf and its ancestors. The per-kind means and the page
// store's growth per cycle are reported beside the cycle's time and
// allocations: with retired records reclaimed, the store plateaus and
// disk-pages/op falls towards zero as b.N grows.
func BenchmarkIngest_Cycle(b *testing.B) {
	idx, ds := coldFileIndex(b)
	randomObject := objectSource(ds)
	var add, update, del time.Duration
	pages := idx.snap.Load().tree.DiskPages()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, y, kws := randomObject()
		x2, y2, kws2 := randomObject()
		t0 := time.Now()
		id, err := idx.AddObject(x, y, kws...)
		if err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		if id, err = idx.UpdateObject(id, x2, y2, kws2...); err != nil {
			b.Fatal(err)
		}
		t2 := time.Now()
		if err := idx.DeleteObject(id); err != nil {
			b.Fatal(err)
		}
		add, update, del = add+t1.Sub(t0), update+t2.Sub(t1), del+time.Since(t2)
	}
	b.StopTimer()
	perOp := func(d time.Duration) float64 { return d.Seconds() * 1e3 / float64(b.N) }
	b.ReportMetric(perOp(add), "add-ms/op")
	b.ReportMetric(perOp(update), "update-ms/op")
	b.ReportMetric(perOp(del), "delete-ms/op")
	b.ReportMetric(float64(idx.snap.Load().tree.DiskPages()-pages)/float64(b.N), "disk-pages/op")
}

// objectSource returns a seeded source of objects like the dataset's: a
// location near one of its objects and the text of another.
func objectSource(ds *dataset.Dataset) func() (x, y float64, keywords []string) {
	rng := rand.New(rand.NewSource(1))
	return func() (x, y float64, keywords []string) {
		at := ds.Objects[rng.Intn(len(ds.Objects))].Loc
		text := ds.Objects[rng.Intn(len(ds.Objects))].Doc
		return at.X + rng.NormFloat64()*0.1, at.Y + rng.NormFloat64()*0.1, docKeywords(ds.Vocab, text)
	}
}

// BenchmarkTopK_ColdFile measures the read path of the same workload: one
// user's top-10 with three keywords from anywhere in the space, against
// caches the index does not fit, so most node visits read their postings
// from the encoded record.
func BenchmarkTopK_ColdFile(b *testing.B) {
	idx, ds := coldFileIndex(b)
	us := dataset.GenerateUsers(ds, dataset.UserConfig{NumUsers: 512, UL: 3, UW: 200, Area: 1000, Seed: 1})
	keywords := make([][]string, len(us.Users))
	for i, u := range us.Users {
		keywords[i] = docKeywords(ds.Vocab, u.Doc)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := us.Users[i%len(us.Users)]
		if _, err := idx.TopK(u.Loc.X, u.Loc.Y, keywords[i%len(us.Users)], 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTopK_ColdFileMixed is BenchmarkTopK_ColdFile with topk-ingest's
// writes between the reads. BenchmarkTopK_ColdFile never writes, so the
// root's record stays file-resident; here, after 60 warm-up mutations,
// every fourth read is followed by an add, an update of the added object
// or a delete of its replacement, in turn, so the root and its path are
// memory-resident rewrites, as under bench/. An op is one read; only the
// reads are timed, as read-ms/op.
func BenchmarkTopK_ColdFileMixed(b *testing.B) {
	idx, ds := coldFileIndex(b)
	us := dataset.GenerateUsers(ds, dataset.UserConfig{NumUsers: 512, UL: 3, UW: 200, Area: 1000, Seed: 1})
	keywords := make([][]string, len(us.Users))
	for i, u := range us.Users {
		keywords[i] = docKeywords(ds.Vocab, u.Doc)
	}
	randomObject := objectSource(ds)
	id, step := 0, 0
	mutate := func() {
		x, y, kws := randomObject()
		var err error
		switch step % 3 {
		case 0:
			id, err = idx.AddObject(x, y, kws...)
		case 1:
			id, err = idx.UpdateObject(id, x, y, kws...)
		default:
			err = idx.DeleteObject(id)
		}
		if err != nil {
			b.Fatal(err)
		}
		step++
	}
	for step < 60 {
		mutate()
	}
	var reads time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := us.Users[i%len(us.Users)]
		t0 := time.Now()
		if _, err := idx.TopK(u.Loc.X, u.Loc.Y, keywords[i%len(us.Users)], 10); err != nil {
			b.Fatal(err)
		}
		reads += time.Since(t0)
		if i%4 == 3 {
			mutate()
		}
	}
	b.StopTimer()
	b.ReportMetric(reads.Seconds()*1e3/float64(b.N), "read-ms/op")
}

// cohortDataset is the dataset bench/ builds its cohort workloads' index
// from: 100,000 generated objects, dataset seed 1.
func cohortDataset() *dataset.Dataset {
	cfg := dataset.DefaultFlickrConfig(100000)
	cfg.Seed = 1
	return dataset.GenerateFlickr(cfg)
}

// cohortIndex builds the index bench/ serves its cohort workloads from:
// cohortDataset under default options, so a 64 MiB decoded cache.
func cohortIndex(b *testing.B) (*Index, *dataset.Dataset) {
	ds := cohortDataset()
	idx, err := replay(ds).Build(Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { idx.Close() })
	return idx, ds
}

// BenchmarkCohortIndex_Build is the set-up bench/ times (setup_s) for its
// cohort workloads, at the library: cohortDataset replayed into a Builder
// and built under default options. Beside the op's time and allocations
// it reports the two halves, replay-ms and build-ms; Build composes the
// index on GOMAXPROCS goroutines.
func BenchmarkCohortIndex_Build(b *testing.B) {
	ds := cohortDataset()
	var replayed, built time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		bld := replay(ds)
		t1 := time.Now()
		idx, err := bld.Build(Options{})
		replayed, built = replayed+t1.Sub(t0), built+time.Since(t1)
		if err != nil {
			b.Fatal(err)
		}
		idx.Close()
	}
	b.StopTimer()
	b.ReportMetric(float64(replayed.Milliseconds())/float64(b.N), "replay-ms")
	b.ReportMetric(float64(built.Milliseconds())/float64(b.N), "build-ms")
}

// cohortUsers is a generated cohort in the facade's terms.
func cohortUsers(ds *dataset.Dataset, us dataset.UserSet) []UserSpec {
	out := make([]UserSpec, len(us.Users))
	for i, u := range us.Users {
		out[i] = UserSpec{X: u.Loc.X, Y: u.Loc.Y, Keywords: docKeywords(ds.Vocab, u.Doc)}
	}
	return out
}

// cohortLocations draws n candidate locations over a cohort's region.
func cohortLocations(us dataset.UserSet, n int, seed int64) [][2]float64 {
	var out [][2]float64
	for _, p := range dataset.CandidateLocations(us.Region, n, 0.5, seed) {
		out = append(out, [2]float64{p.X, p.Y})
	}
	return out
}

// BenchmarkCohortFresh_Library is bench/'s cohort-fresh at the library:
// the 100,000-object index it serves (cohortIndex), and per op a 16-user
// cohort confined to a 2×2 sub-area as genFresh draws them, with 50
// candidate locations and the cohort's 20-keyword pool, answered by
// MaxBRSTkNN (approx, at most 3 keywords, k = 10). The library keeps no
// sessions, so every op pays phase 1; 64 cohorts drawn up front take
// turns. Beside B/op it reports decoded-MB, what the decoded cache holds
// at the end.
func BenchmarkCohortFresh_Library(b *testing.B) {
	idx, ds := cohortIndex(b)
	reqs := make([]Request, 64)
	for i := range reqs {
		seed := int64(1000003 + i)
		us := dataset.GenerateUsers(ds, dataset.UserConfig{NumUsers: 16, UL: 3, UW: 20, Area: 2, Seed: seed})
		req := Request{Users: cohortUsers(ds, us), Locations: cohortLocations(us, 50, seed), MaxKeywords: 3, K: 10, Strategy: Approx}
		for _, t := range us.Keywords {
			req.Keywords = append(req.Keywords, ds.Vocab.Term(t))
		}
		reqs[i] = req
	}
	if _, err := idx.MaxBRSTkNN(reqs[0]); err != nil { // fills the decoded cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := idx.MaxBRSTkNN(reqs[i%len(reqs)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(idx.CacheStats().DecodedBytes)/(1<<20), "decoded-MB")
}

// BenchmarkCohortRepeat_Library is bench/'s cohort-repeat at the library,
// phase 2 alone: on the same index, eight 64-user cohorts (UL 3, UW 40,
// area 5) whose sessions are prepared before the timer starts take turns,
// and each op asks one of them about a fresh set of 50 candidate
// locations and 20 of its keywords (Exact, at most 2 keywords, k = 10,
// Workers 2) with Session.Run — every fifth op with RunTopL(…, 3), as
// genRepeat sends every fifth request to /topl.
func BenchmarkCohortRepeat_Library(b *testing.B) {
	idx, ds := cohortIndex(b)
	const cohorts, k = 8, 10
	sessions := make([]*Session, cohorts)
	regions := make([]dataset.UserSet, cohorts)
	pools := make([][]string, cohorts)
	for c := range sessions {
		us := dataset.GenerateUsers(ds, dataset.UserConfig{NumUsers: 64, UL: 3, UW: 40, Area: 5, Seed: 7919 + int64(c)})
		s, err := idx.NewSession(cohortUsers(ds, us), k)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { s.Close() })
		sessions[c], regions[c] = s, us
		for _, t := range us.Keywords {
			pools[c] = append(pools[c], ds.Vocab.Term(t))
		}
	}
	rng := rand.New(rand.NewSource(1))
	reqs := make([]Request, b.N)
	for i := range reqs {
		c := i % cohorts
		req := Request{Locations: cohortLocations(regions[c], 50, 1000003+int64(i)), MaxKeywords: 2, K: k, Strategy: Exact, Parallel: ParallelOptions{Workers: 2}}
		for _, j := range rng.Perm(len(pools[c]))[:min(20, len(pools[c]))] {
			req.Keywords = append(req.Keywords, pools[c][j])
		}
		reqs[i] = req
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i, req := range reqs {
		var err error
		if s := sessions[i%cohorts]; i%5 == 4 {
			_, err = s.RunTopL(req, 3)
		} else {
			_, err = s.Run(req)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}
