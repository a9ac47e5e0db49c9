package experiments

import (
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/textrel"
)

// measured aggregates all metrics of one configuration over cfg.Runs
// workloads (distinct user sets, shared dataset).
type measured struct {
	Base, Joint TopKMetrics
	Sel         [3]SelectionMetrics // per selection: Baseline, Exact, Approx
	ratioSum    float64
	ratioRuns   int
}

// Ratio returns the mean approximation ratio |approx| / |exact|.
func (m measured) Ratio() float64 {
	if m.ratioRuns == 0 {
		return 1
	}
	return m.ratioSum / float64(m.ratioRuns)
}

// measure runs one configuration end to end: both top-k phases, then the
// exhaustive Section 4 candidate selection (only withBaselineSel: it is
// expensive), the exact and the approximate one, all sequential.
func measure(cfg Config, withBaselineSel bool) (measured, error) {
	var m measured
	for run := 0; run < cfg.Runs; run++ {
		w := NewWorkload(cfg, run)
		b, err := w.MeasureBaselineTopK()
		if err != nil {
			return m, err
		}
		j, e, th, err := w.MeasureJointTopK()
		if err != nil {
			return m, err
		}
		m.Base.add(b)
		m.Joint.add(j)
		var counts [3]int
		for i, spec := range []core.ScanSpec{{Mode: core.ScanExhaustive}, {}, {Method: core.KeywordsApprox}} {
			if i == 0 && !withBaselineSel {
				continue
			}
			start := time.Now()
			sel, err := selectBest(e, w.Query(), th, spec)
			if err != nil {
				return m, err
			}
			m.Sel[i].add(float64(time.Since(start).Microseconds()) / 1000)
			counts[i] = sel.Count()
		}
		if counts[1] > 0 {
			m.ratioSum += float64(counts[2]) / float64(counts[1])
			m.ratioRuns++
		}
	}
	return m, nil
}

// axis is one Table 5 parameter as a figure sweeps it: its column
// header, its range, how its values print, and how to read and set it on
// a configuration. Table 5 lists the range and stars the default.
type axis struct {
	name   string
	note   string // Table 5's gloss on the name, e.g. " (keywords per user)"
	vals   []float64
	format func(float64) string
	get    func(Config) float64
	set    func(*Config, float64)
}

// kAxis is swept twice: across the text measures (Fig 5) and on the
// Yelp-like dataset (Fig 14).
var kAxis = axis{name: "k", vals: []float64{1, 5, 10, 20, 50}, format: f0,
	get: func(c Config) float64 { return float64(c.K) }, set: func(c *Config, v float64) { c.K = int(v) }}

// sweep is one figure that varies one parameter from the defaults: a
// top-k panel (Baseline vs Joint runtime and simulated I/O) and a
// candidate-selection panel (runtime per method and the approximation
// ratio), either omitted when its title is empty.
type sweep struct {
	name      string // the experiment's name in All
	topk, sel string // panel titles
	axis      axis
	// baseline times the exhaustive Section 4 selection (expensive);
	// without it the selection panel has no Baseline column.
	baseline bool
	// totals shows the top-k panel's runtime and I/O per run, not per user.
	totals bool
	// prep adapts the defaults before the sweep (nil: none).
	prep func(Config) Config
}

// sweeps are Figures 6–14, one row each.
var sweeps = []sweep{
	{name: "fig6", topk: "Fig 6ab — top-k phase vs α", sel: "Fig 6cd — candidate selection vs α", baseline: true,
		axis: axis{name: "alpha", vals: []float64{0.1, 0.3, 0.5, 0.7, 0.9}, format: f1,
			get: func(c Config) float64 { return c.Alpha }, set: func(c *Config, v float64) { c.Alpha = v }}},
	{name: "fig7", topk: "Fig 7 — varying UL — top-k phase", sel: "Fig 7 — varying UL — candidate selection", baseline: true,
		axis: axis{name: "UL", note: " (keywords per user)", vals: []float64{1, 2, 3, 4, 5, 6}, format: f0,
			get: func(c Config) float64 { return float64(c.UL) }, set: func(c *Config, v float64) { c.UL = int(v) }}},
	{name: "fig8", topk: "Fig 8 — varying UW — top-k phase", sel: "Fig 8 — varying UW — candidate selection", baseline: true,
		axis: axis{name: "UW", note: " (unique user keywords)", vals: []float64{5, 10, 20, 30, 40}, format: f0,
			get: func(c Config) float64 { return float64(c.UW) },
			set: func(c *Config, v float64) { c.UW = int(v); c.WS = min(c.WS, c.UW) }}},
	{name: "fig9", topk: "Fig 9 — top-k phase vs Area", // the paper plots the top-k phase only
		axis: axis{name: "Area", vals: []float64{1, 2, 5, 10, 20}, format: f1,
			get: func(c Config) float64 { return c.Area }, set: func(c *Config, v float64) { c.Area = v }}},
	{name: "fig10", sel: "Fig 10 — candidate selection vs |L|", baseline: true,
		axis: axis{name: "|L|", vals: []float64{1, 20, 50, 100, 300}, format: f0,
			get: func(c Config) float64 { return float64(c.NumLocs) }, set: func(c *Config, v float64) { c.NumLocs = int(v) }}},
	// The exact method's cost grows as C(|W|, ws); the range stops at 5
	// where the paper (at testbed scale) reaches 8.
	{name: "fig11", sel: "Fig 11 — candidate selection vs ws", baseline: true,
		axis: axis{name: "ws", vals: []float64{1, 2, 3, 4, 5}, format: f0,
			get: func(c Config) float64 { return float64(c.WS) }, set: func(c *Config, v float64) { c.WS = int(v) }}},
	{name: "fig12", topk: "Fig 12ab — total top-k cost vs |U|", sel: "Fig 12cd — candidate selection vs |U|", baseline: true, totals: true,
		axis: axis{name: "|U|", vals: []float64{100, 500, 1000, 2000, 4000}, format: f0,
			get: func(c Config) float64 { return float64(c.NumUsers) }, set: func(c *Config, v float64) { c.NumUsers = int(v) }}},
	// Scalability in |O| (paper: 1M–8M; scaled down 100×); the selection
	// panel compares Exact and Approx only, as in the paper.
	{name: "fig13", topk: "Fig 13ab — top-k phase vs |O|", sel: "Fig 13cd — candidate selection vs |O|",
		axis: axis{name: "|O|", note: " (paper: 1M–8M)", vals: []float64{10000, 20000, 40000, 80000}, format: f0,
			get: func(c Config) float64 { return float64(c.NumObjects) }, set: func(c *Config, v float64) { c.NumObjects = int(v) }}},
	{name: "fig14", topk: "Fig 14 — varying k (Yelp) — top-k phase", sel: "Fig 14 — varying k (Yelp) — candidate selection", baseline: true,
		axis: kAxis, prep: yelp},
}

// run measures the sweep at vals (nil: the axis's range) and fills its
// panels, one row per value.
func (s sweep) run(cfg Config, vals []float64) ([]*Table, error) {
	if s.prep != nil {
		cfg = s.prep(cfg)
	}
	if vals == nil {
		vals = s.axis.vals
	}
	p := s.axis.name
	topk := &Table{Title: s.topk, Header: []string{p, "B MRPU(ms)", "J MRPU(ms)", "B MIOCPU", "J MIOCPU"}}
	if s.totals {
		topk.Header = []string{p, "B total(ms)", "J total(ms)", "B total I/O", "J total I/O"}
	}
	sel := &Table{Title: s.sel, Header: []string{p, "Exact(ms)", "Approx(ms)", "ratio"}}
	if s.baseline {
		sel.Header = slices.Insert(sel.Header, 1, "Baseline(ms)")
	}
	for _, v := range vals {
		c := cfg
		s.axis.set(&c, v)
		m, err := measure(c, s.baseline)
		if err != nil {
			return nil, err
		}
		x := s.axis.format(v)
		if runs := int64(c.Runs); s.totals {
			topk.AddRow(x, f1(m.Base.TotalMillis/float64(runs)), f1(m.Joint.TotalMillis/float64(runs)),
				d(m.Base.TotalIO/runs), d(m.Joint.TotalIO/runs))
		} else {
			topk.AddRow(x, f2(m.Base.MRPU()), f2(m.Joint.MRPU()), f1(m.Base.MIOCPU()), f1(m.Joint.MIOCPU()))
		}
		row := []string{x}
		if s.baseline {
			row = append(row, f1(m.Sel[0].MeanMillis()))
		}
		sel.AddRow(append(row, f1(m.Sel[1].MeanMillis()), f2(m.Sel[2].MeanMillis()), f3(m.Ratio()))...)
	}
	return slices.DeleteFunc([]*Table{topk, sel}, func(t *Table) bool { return t.Title == "" }), nil
}

// yelp moves a configuration to the Yelp-like dataset, whose documents
// are ~15× longer, with at most 5,000 objects.
func yelp(cfg Config) Config {
	cfg.Dataset = Yelp
	cfg.NumObjects = min(cfg.NumObjects, 5000)
	return cfg
}

// Fig05 — effect of varying k across the three text measures: panels (a)
// MRPU and (b) MIOCPU comparing Baseline vs Joint, (c) candidate-selection
// runtime, (d) approximation ratio. Each measure runs the k sweep (ks nil:
// k's Table 5 range), and its panels' columns are laid side by side.
func Fig05(cfg Config, ks []float64) ([]*Table, error) {
	mrpu := &Table{Title: "Fig 5a — MRPU (ms) vs k", Header: []string{"k"}}
	iocost := &Table{Title: "Fig 5b — MIOCPU vs k", Header: []string{"k"}}
	sel := &Table{Title: "Fig 5c — selection runtime (ms) vs k", Header: []string{"k"}}
	ratio := &Table{Title: "Fig 5d — approximation ratio vs k", Header: []string{"k"}}
	for mi, ms := range []textrel.MeasureKind{textrel.LM, textrel.TFIDF, textrel.KO} {
		c := cfg
		c.Measure = ms
		// Both panels (a title keeps one); the exhaustive baseline is
		// timed for LM only.
		panels, err := sweep{topk: "top-k", sel: "selection", axis: kAxis, baseline: mi == 0}.run(c, ks)
		if err != nil {
			return nil, err
		}
		n, top, se := ms.String(), panels[0], panels[1]
		mrpu.join(top, []int{1, 2}, "B("+n+")", "J("+n+")")
		iocost.join(top, []int{3, 4}, "B("+n+")", "J("+n+")")
		if mi == 0 {
			sel.join(se, []int{1}, "B("+n+")")
		}
		last := len(se.Header) - 1
		sel.join(se, []int{last - 2, last - 1}, "E("+n+")", "A("+n+")")
		ratio.join(se, []int{last}, n)
	}
	return []*Table{mrpu, iocost, sel, ratio}, nil
}
