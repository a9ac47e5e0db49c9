// Command maxbrstknn answers MaxBRSTkNN queries over text files produced
// by cmd/datagen (or hand-written in the same interchange format).
//
// One-shot mode (build the index in memory, query, exit):
//
//	maxbrstknn -data ./data -ws 3 -k 10 -strategy approx
//
// Persistent-index mode: build once, then serve any number of queries
// against the saved index file —
//
//	maxbrstknn build -data ./data -out ./data/index.mxbr
//	maxbrstknn query -index ./data/index.mxbr -data ./data -ws 3 -k 10
//
// build reads objects.txt from the data directory and writes the single
// page-aligned index file; query loads it (its records stay in the file,
// read on demand under a decoded cache) and runs the query described by
// users.txt and candidates.txt, reporting simulated I/O next to the real
// page reads the index file served.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	maxbrstknn "repro"
	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/indexutil"
	"repro/internal/server"
	"repro/internal/vocab"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "build":
			runBuild(os.Args[2:])
			return
		case "query":
			runQuery(os.Args[2:])
			return
		}
	}
	runOneShot(os.Args[1:])
}

// runBuild implements the `build` subcommand: dataset → saved index file.
func runBuild(args []string) {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	var (
		dir     = fs.String("data", ".", "directory holding objects.txt")
		out     = fs.String("out", "index.mxbr", "output index file")
		alpha   = fs.Float64("alpha", 0.5, "spatial/textual preference")
		lambda  = fs.Float64("lambda", 0.4, "LM smoothing weight")
		measure = fs.String("measure", "lm", "lm | tfidf | ko | bm25")
		fanout  = fs.Int("fanout", 32, "R-tree node capacity")
	)
	fs.Parse(args)

	b := indexutil.BuilderFromDataset(loadObjects(*dir, vocab.New()))
	opts := maxbrstknn.Options{
		Measure: parseMeasure(*measure), Fanout: *fanout,
		Alpha: *alpha, ExplicitAlpha: true,
		Lambda: *lambda, ExplicitLambda: true,
	}
	start := time.Now()
	idx, err := b.Build(opts)
	if err != nil {
		fail(err)
	}
	buildMs := float64(time.Since(start).Microseconds()) / 1000
	start = time.Now()
	if err := idx.Save(*out); err != nil {
		fail(err)
	}
	saveMs := float64(time.Since(start).Microseconds()) / 1000
	st, err := os.Stat(*out)
	if err != nil {
		fail(err)
	}
	fmt.Printf("built %d objects (measure=%s alpha=%.2f fanout=%d) in %.1f ms\n",
		idx.NumObjects(), *measure, *alpha, *fanout, buildMs)
	fmt.Printf("saved %s: %d bytes in %.1f ms\n", *out, st.Size(), saveMs)
}

// runQuery implements the `query` subcommand: saved index + query files →
// answer.
func runQuery(args []string) {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	var (
		indexPath = fs.String("index", "index.mxbr", "saved index file (from `maxbrstknn build`)")
		dir       = fs.String("data", ".", "directory holding users.txt, candidates.txt")
		ws        = fs.Int("ws", 3, "maximum keywords to select")
		k         = fs.Int("k", 10, "top-k depth")
		strategy  = fs.String("strategy", "exact", "exact | approx | exhaustive | user-indexed")
		topL      = fs.Int("top", 1, "report the top-L candidate locations")
		workers   = fs.Int("workers", 0, "parallel engine workers (0 = sequential)")
	)
	fs.Parse(args)
	strat, err := server.ParseStrategy(*strategy)
	if err != nil {
		fail(err)
	}

	start := time.Now()
	idx, err := maxbrstknn.Load(*indexPath)
	if err != nil {
		fail(err)
	}
	defer idx.Close()
	loadMs := float64(time.Since(start).Microseconds()) / 1000
	fmt.Printf("loaded %s: %d objects in %.1f ms\n", *indexPath, idx.NumObjects(), loadMs)

	// The query-side files carry keyword strings; parse them through a
	// scratch vocabulary (the index file owns the real one).
	req := loadRequest(*dir, vocab.New())
	req.MaxKeywords, req.K, req.Strategy = *ws, *k, strat
	req.Parallel = maxbrstknn.ParallelOptions{Workers: *workers}
	fmt.Printf("users=%d candidate locations=%d candidate keywords=%d strategy=%s k=%d ws=%d\n",
		len(req.Users), len(req.Locations), len(req.Keywords), req.Strategy, *k, *ws)
	answer(idx, req, *topL)
}

// runOneShot preserves the original flag-driven behavior: build the index
// in memory, answer one query, exit.
func runOneShot(args []string) {
	fs := flag.NewFlagSet("maxbrstknn", flag.ExitOnError)
	var (
		dir      = fs.String("data", ".", "directory holding objects.txt, users.txt, candidates.txt")
		ws       = fs.Int("ws", 3, "maximum keywords to select")
		k        = fs.Int("k", 10, "top-k depth")
		alpha    = fs.Float64("alpha", 0.5, "spatial/textual preference")
		strategy = fs.String("strategy", "exact", "exact | approx | exhaustive | user-indexed")
		measure  = fs.String("measure", "lm", "lm | tfidf | ko | bm25")
		topL     = fs.Int("top", 1, "report the top-L candidate locations")
	)
	fs.Parse(args)
	strat, err := server.ParseStrategy(*strategy)
	if err != nil {
		fail(err)
	}

	v := vocab.New()
	ds := loadObjects(*dir, v)
	req := loadRequest(*dir, v)
	req.MaxKeywords, req.K, req.Strategy = *ws, *k, strat

	opts := maxbrstknn.Options{Alpha: *alpha, ExplicitAlpha: true, Measure: parseMeasure(*measure)}
	idx, err := indexutil.BuilderFromDataset(ds).Build(opts)
	if err != nil {
		fail(err)
	}

	fmt.Printf("objects=%d users=%d candidate locations=%d candidate keywords=%d\n",
		idx.NumObjects(), len(req.Users), len(req.Locations), len(req.Keywords))
	fmt.Printf("strategy=%s k=%d ws=%d alpha=%.2f measure=%s\n", req.Strategy, *k, *ws, *alpha, *measure)
	answer(idx, req, *topL)
}

// answer runs the request (top-1 or top-L) and prints the result with the
// I/O ledger: simulated I/O always, physical reads and cache hit rate
// when the index is disk-backed.
func answer(idx *maxbrstknn.Index, req maxbrstknn.Request, topL int) {
	start := time.Now()
	if topL > 1 {
		session, err := idx.NewSession(req.Users, req.K)
		if err != nil {
			fail(err)
		}
		defer session.Close()
		ranked, err := session.RunTopL(req, topL)
		if err != nil {
			fail(err)
		}
		for i, res := range ranked {
			fmt.Printf("#%d  location %d (%.6f, %.6f)  keywords [%s]  |BRSTkNN| = %d\n",
				i+1, res.LocationIndex, res.Location[0], res.Location[1],
				strings.Join(res.Keywords, ", "), res.Count())
		}
	} else {
		res, err := idx.MaxBRSTkNN(req)
		if err != nil {
			fail(err)
		}
		if res.LocationIndex < 0 {
			fmt.Println("no location attracts any user")
		} else {
			fmt.Printf("selected location: #%d (%.6f, %.6f)\n", res.LocationIndex, res.Location[0], res.Location[1])
			fmt.Printf("selected keywords: %s\n", strings.Join(res.Keywords, ", "))
			fmt.Printf("|BRSTkNN| = %d users: %v\n", res.Count(), res.UserIDs)
			if res.Stats.TotalUsers > 0 {
				fmt.Printf("user-index pruning: %d/%d resolved (%.1f%% pruned)\n",
					res.Stats.ResolvedUsers, res.Stats.TotalUsers, res.Stats.PrunedPercent)
			}
		}
	}
	fmt.Printf("elapsed: %.1f ms, simulated I/O: %d\n",
		float64(time.Since(start).Microseconds())/1000, idx.SimulatedIO())
	if records, pages := idx.ReadStats(); records > 0 {
		cs := idx.CacheStats()
		fmt.Printf("physical reads: %d records / %d pages\n", records, pages)
		fmt.Printf("decoded cache: %d hits / %d misses / %d evictions, %d entries, %d bytes resident\n",
			cs.DecodedHits, cs.DecodedMisses, cs.DecodedEvictions, cs.DecodedEntries, cs.DecodedBytes)
	}
}

func parseMeasure(s string) maxbrstknn.Measure {
	switch strings.ToLower(s) {
	case "lm":
		return maxbrstknn.LanguageModel
	case "tfidf":
		return maxbrstknn.TFIDF
	case "ko":
		return maxbrstknn.KeywordOverlap
	case "bm25":
		return maxbrstknn.BM25Measure
	default:
		fail(fmt.Errorf("unknown measure %q", s))
		panic("unreachable")
	}
}

// loadObjects reads objects.txt of dir, its keywords through v.
func loadObjects(dir string, v *vocab.Vocabulary) *dataset.Dataset {
	return load(filepath.Join(dir, "objects.txt"), func(r io.Reader) (*dataset.Dataset, error) { return dataset.ReadObjects(r, v) })
}

// loadRequest reads users.txt and candidates.txt of dir, their keywords
// through v, into a request's users, locations and keywords.
func loadRequest(dir string, v *vocab.Vocabulary) maxbrstknn.Request {
	users := load(filepath.Join(dir, "users.txt"), func(r io.Reader) ([]dataset.User, error) { return dataset.ReadUsers(r, v) })
	var req maxbrstknn.Request
	locs := load(filepath.Join(dir, "candidates.txt"), func(r io.Reader) (locs []geo.Point, err error) {
		locs, req.Keywords, err = dataset.ReadCandidates(r)
		return locs, err
	})
	req.Users = indexutil.UserSpecs(v, users)
	for _, l := range locs {
		req.Locations = append(req.Locations, [2]float64{l.X, l.Y})
	}
	return req
}

// load reads the file at path with read, exiting on any error.
func load[T any](path string, read func(io.Reader) (T, error)) T {
	f, err := os.Open(path)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	v, err := read(f)
	if err != nil {
		fail(err)
	}
	return v
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
