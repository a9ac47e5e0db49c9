package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/irtree"
	"repro/internal/persist"
	"repro/internal/textrel"
)

// FigDisk measures disk-backed query serving against the in-memory
// substrate the paper's experiments simulate: the index is saved to a
// page-aligned file, then the full query (joint top-k preparation plus
// exact selection) runs against (a) the in-memory pager, (b) the index
// file served cold — no cache, every node visit and inverted-file load is
// a physical read — and (c) the file under a decoded cache, first touch
// and then fully warm: warm, every node and posting directory is a hit,
// and the file serves only the posting runs the query wants. Each row
// reports the real page reads the file served next to the simulated-I/O
// counter, which the cold row lets us cross-check: with no cache, every
// simulated charge corresponds to a physical record fetch.
//
// Every backend's selection is checked against the in-memory result; a
// mismatch is an error, making the byte-identical persistence guarantee
// part of the experiment itself.
func FigDisk(cfg Config) ([]*Table, error) {
	t := &Table{
		Title: "Disk — cold vs warm serving from the saved index file",
		Header: []string{"backend", "prep(ms)", "select(ms)", "sim I/O",
			"phys records", "phys pages", "decoded hit/miss", "|BRSTkNN|"},
	}

	type point struct {
		prepMs, selMs         float64
		simIO                 int64
		physRecords, physPage int64
		hits, misses          int64
		count                 int
	}
	rows := []string{"in-memory", "disk cold", "decoded first touch", "decoded warm"}
	points := make([]point, len(rows))

	dir, err := os.MkdirTemp("", "maxbrstknn-disk-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	for run := 0; run < cfg.Runs; run++ {
		w := NewWorkload(cfg, run)
		q := w.Query()
		path := filepath.Join(dir, fmt.Sprintf("run%d.mxbr", run))
		if err := persist.Save(path, &persist.Index{
			Measure: cfg.Measure,
			Alpha:   cfg.Alpha, ExplicitAlpha: true,
			Lambda: textrel.DefaultLambda,
			Fanout: cfg.Fanout,
			DS:     w.DS,
			Tree:   w.MIR,
		}); err != nil {
			return nil, err
		}

		// measure runs one full query against a tree and accumulates the
		// deltas of every ledger into points[pi].
		var baseline core.Selection
		measure := func(pi int, tree *irtree.Tree, scorer *textrel.Scorer) error {
			tree.IO().Reset()
			ioBefore := tree.Backend().ReadStats()
			cacheBefore := tree.DecodedCacheStats()

			e := core.NewEngine(tree, scorer, w.US.Users)
			start := time.Now()
			th, err := e.Prepare(cfg.K, 0, 0)
			if err != nil {
				return err
			}
			points[pi].prepMs += float64(time.Since(start).Microseconds()) / 1000
			start = time.Now()
			sel, err := selectBest(e, q, th, core.ScanSpec{})
			if err != nil {
				return err
			}
			points[pi].selMs += float64(time.Since(start).Microseconds()) / 1000

			ioAfter := tree.Backend().ReadStats()
			cacheAfter := tree.DecodedCacheStats()
			points[pi].simIO += tree.IO().Total()
			points[pi].physRecords += ioAfter.Records - ioBefore.Records
			points[pi].physPage += ioAfter.Pages - ioBefore.Pages
			points[pi].hits += cacheAfter.Hits - cacheBefore.Hits
			points[pi].misses += cacheAfter.Misses - cacheBefore.Misses
			points[pi].count = sel.Count()

			if pi == 0 {
				baseline = sel
			} else if !reflect.DeepEqual(sel, baseline) {
				return fmt.Errorf("experiments: %s selected %+v, in-memory selected %+v (persistence broke determinism)",
					rows[pi], sel, baseline)
			}
			return nil
		}

		if err := measure(0, w.MIR, w.Scorer); err != nil {
			return nil, err
		}

		// The cold load has no decoded cache: its cross-check requires
		// every read to reach the medium. The warm load has room for every
		// node and directory: its first touch populates the cache, and the
		// second query runs fully warm.
		for _, load := range []struct {
			budget int64
			rows   []int
		}{{0, []int{1}}, {64 << 20, []int{2, 3}}} {
			ix, err := persist.Load(path, load.budget)
			if err != nil {
				return nil, err
			}
			// The in-memory workload's scorer over the loaded index: the
			// tree's own model (bit-identical by the persistence guarantee)
			// with the query-extended dmax normalization.
			scorer := &textrel.Scorer{Model: ix.Tree.Model(), Alpha: cfg.Alpha,
				DMax: ix.DS.DMax(dataset.UsersMBR(w.US.Users), geo.MBR(w.Locs))}
			for _, pi := range load.rows {
				if err == nil {
					err = measure(pi, ix.Tree, scorer)
				}
			}
			ix.Close()
			if err != nil {
				return nil, err
			}
		}
	}

	runs := int64(cfg.Runs)
	for pi, name := range rows {
		p := points[pi]
		t.AddRow(name, f2(p.prepMs/float64(runs)), f2(p.selMs/float64(runs)), d(p.simIO/runs), d(p.physRecords/runs),
			d(p.physPage/runs), fmt.Sprintf("%d/%d", p.hits/runs, p.misses/runs), fmt.Sprint(p.count))
	}
	return []*Table{t}, nil
}
