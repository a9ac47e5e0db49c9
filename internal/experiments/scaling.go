package experiments

import (
	"fmt"
	"reflect"
	"time"

	"repro/internal/core"
)

// scalingWorkerCounts is the worker axis of the scaling figure.
var scalingWorkerCounts = []int{1, 2, 4, 8}

// FigScaling measures the parallel query engine: phase 1 (grouped joint
// top-k preparation) and phase 2 (exact candidate selection) at
// increasing worker counts, reporting wall time and speedup over the
// sequential pipeline. This figure is not from the paper — it is the
// scaling axis the ROADMAP's serving goal adds on top of it.
//
// Each row runs under the engine's default grouping, one group per
// worker. Every row's selection is checked against the sequential
// result; a mismatch is an error, making the determinism guarantee part
// of the experiment itself.
func FigScaling(cfg Config) ([]*Table, error) {
	t := &Table{
		Title:  "Scaling — parallel engine speedup vs workers (exact method)",
		Header: []string{"workers", "groups", "prepare(ms)", "speedup", "select(ms)", "speedup", "|BRSTkNN|"},
	}

	type point struct {
		prepMs, selMs float64
		count         int
	}
	points := make([]point, len(scalingWorkerCounts))

	for run := 0; run < cfg.Runs; run++ {
		w := NewWorkload(cfg, run)
		q := w.Query()
		var seqSel core.Selection
		for pi, workers := range scalingWorkerCounts {
			e := core.NewEngine(w.MIR, w.Scorer, w.US.Users)

			start := time.Now()
			th, err := e.Prepare(w.Cfg.K, workers, 0)
			if err != nil {
				return nil, err
			}
			points[pi].prepMs += float64(time.Since(start).Microseconds()) / 1000

			start = time.Now()
			sel, err := selectBest(e, q, th, core.ScanSpec{Workers: workers})
			if err != nil {
				return nil, err
			}
			points[pi].selMs += float64(time.Since(start).Microseconds()) / 1000
			points[pi].count = sel.Count()

			if workers == 1 {
				seqSel = sel
			} else if !reflect.DeepEqual(sel, seqSel) {
				return nil, fmt.Errorf("experiments: workers=%d selected %+v, sequential selected %+v (determinism violated)",
					workers, sel, seqSel)
			}
		}
	}

	base, runs := points[0], float64(cfg.Runs)
	for pi, workers := range scalingWorkerCounts {
		p := points[pi]
		t.AddRow(fmt.Sprint(workers), fmt.Sprint(workers), // groups: Prepare's default, one per worker
			f2(p.prepMs/runs), f2(base.prepMs/p.prepMs), f2(p.selMs/runs), f2(base.selMs/p.selMs), fmt.Sprint(p.count))
	}
	return []*Table{t}, nil
}
