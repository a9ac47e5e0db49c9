package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/irtree"
	"repro/internal/topk"
)

// ablations are the three ablation tables, in the order the ablations
// experiment prints them.
var ablations = []struct {
	name string
	run  func(Config) (*Table, error)
}{
	{"min-weights", AblationMinWeights},
	{"super-user", AblationSuperUser},
	{"best-first", AblationBestFirst},
}

// AblationMinWeights isolates the value of the MIR-tree's minimum weights
// (the lower bounds of Section 5.3) by running the joint traversal against
// the plain IR-tree, whose stored minima are all zero: the traversal stays
// correct but the looser lower bounds weaken RSk(us) and pruning.
func AblationMinWeights(cfg Config) (*Table, error) {
	t := &Table{
		Title:  "Ablation — MIR-tree min weights vs IR-tree (joint traversal)",
		Header: []string{"index", "I/O", "candidates", "ms"},
	}
	for run := 0; run < cfg.Runs; run++ {
		w := NewWorkload(cfg, run)
		su := topk.BuildSuperUser(w.US.Users, w.Scorer)
		var sc topk.TraverseScratch
		for _, index := range []struct {
			name string
			tree *irtree.Tree
		}{{"MIR", w.MIR}, {"IR ", w.IR}} {
			var tr *topk.TraversalResult
			m, err := w.timeTopK(index.tree, func() (err error) {
				tr, err = topk.Traverse(index.tree, w.Scorer, su, cfg.K, -math.MaxFloat64, &sc)
				return err
			})
			if err != nil {
				return nil, err
			}
			t.AddRow(fmt.Sprintf("%s (run %d)", index.name, run), d(m.TotalIO), fmt.Sprint(len(tr.Candidates())), f1(m.TotalMillis))
		}
	}
	return t, nil
}

// AblationSuperUser isolates the value of grouping users behind the
// super-user: the same MIR-tree is traversed once jointly versus once per
// user.
func AblationSuperUser(cfg Config) (*Table, error) {
	t := &Table{
		Title:  "Ablation — super-user grouping (shared vs per-user traversal)",
		Header: []string{"strategy", "total I/O", "total ms"},
	}
	var shared, perUser TopKMetrics
	for run := 0; run < cfg.Runs; run++ {
		w := NewWorkload(cfg, run)
		j, _, _, err := w.MeasureJointTopK()
		if err != nil {
			return nil, err
		}
		p, err := w.timeTopK(w.MIR, func() error {
			_, err := topk.BaselineTopK(w.MIR, w.Scorer, w.US.Users, cfg.K)
			return err
		})
		if err != nil {
			return nil, err
		}
		shared.add(j)
		perUser.add(p)
	}
	runs := int64(cfg.Runs)
	t.AddRow("joint (super-user)", d(shared.TotalIO/runs), f1(shared.TotalMillis/float64(runs)))
	t.AddRow("per-user on MIR-tree", d(perUser.TotalIO/runs), f1(perUser.TotalMillis/float64(runs)))
	return t, nil
}

// AblationBestFirst isolates Algorithm 3's best-first early termination
// against evaluating every candidate location: a top-l scan with l = |L|,
// which can never stop early.
func AblationBestFirst(cfg Config) (*Table, error) {
	t := &Table{
		Title:  "Ablation — Algorithm 3 best-first early termination",
		Header: []string{"strategy", "mean ms", "count"},
	}
	var bfMs, scanMs float64
	var bfCount, scanCount int
	for run := 0; run < cfg.Runs; run++ {
		w := NewWorkload(cfg, run)
		_, e, th, err := w.MeasureJointTopK()
		if err != nil {
			return nil, err
		}
		q := w.Query()

		start := time.Now()
		selBF, err := selectBest(e, q, th, core.ScanSpec{Method: core.KeywordsApprox})
		if err != nil {
			return nil, err
		}
		bfMs += float64(time.Since(start).Microseconds()) / 1000
		bfCount += selBF.Count()

		start = time.Now()
		count, err := countEvaluatingAll(e, q, th)
		if err != nil {
			return nil, err
		}
		scanMs += float64(time.Since(start).Microseconds()) / 1000
		scanCount += count

		if selBF.Count() != count {
			return nil, fmt.Errorf("ablation changed the answer: %d vs %d", selBF.Count(), count)
		}
	}
	t.AddRow("best-first", f2(bfMs/float64(cfg.Runs)), fmt.Sprint(bfCount/cfg.Runs))
	t.AddRow("every location", f2(scanMs/float64(cfg.Runs)), fmt.Sprint(scanCount/cfg.Runs))
	return t, nil
}

// countEvaluatingAll is the ablation's no-early-stop side: the best count
// of a top-l scan with l = |L|, which evaluates every candidate location.
func countEvaluatingAll(e *core.Engine, q core.Query, th core.Thresholds) (int, error) {
	l := len(q.Locations)
	cands, _, err := e.Scan(q, th, core.ScanSpec{Method: core.KeywordsApprox, Mode: core.ScanTopL, L: l})
	if err != nil {
		return 0, err
	}
	if top := core.TopL(cands, l); len(top) > 0 {
		return top[0].Count(), nil
	}
	return 0, nil
}
