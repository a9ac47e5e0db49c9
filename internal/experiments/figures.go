package experiments

import (
	"fmt"

	"repro/internal/textrel"
)

// measured aggregates all metrics of one configuration over cfg.Runs
// workloads (distinct user sets, shared dataset).
type measured struct {
	Base, Joint                  TopKMetrics
	SelBase, SelExact, SelApprox SelectionMetrics
	ratioSum                     float64
	ratioRuns                    int
}

// Ratio returns the mean approximation ratio |approx| / |exact|.
func (m measured) Ratio() float64 {
	if m.ratioRuns == 0 {
		return 1
	}
	return m.ratioSum / float64(m.ratioRuns)
}

// measure runs one configuration end to end. withBaselineSel additionally
// times the exhaustive Section 4 candidate selection (expensive).
func measure(cfg Config, withBaselineSel bool) (measured, error) {
	var m measured
	for run := 0; run < cfg.Runs; run++ {
		w := NewWorkload(cfg, run)
		b, err := w.MeasureBaselineTopK()
		if err != nil {
			return m, err
		}
		m.Base.add(b)
		j, err := w.MeasureJointTopK()
		if err != nil {
			return m, err
		}
		m.Joint.add(j)

		e, th, err := w.PreparedEngine()
		if err != nil {
			return m, err
		}
		bMs, eMs, aMs, eCount, aCount, err := w.SelectionTriple(e, th, withBaselineSel)
		if err != nil {
			return m, err
		}
		if withBaselineSel {
			m.SelBase.add(bMs)
		}
		m.SelExact.add(eMs)
		m.SelApprox.add(aMs)
		if eCount > 0 {
			m.ratioSum += float64(aCount) / float64(eCount)
			m.ratioRuns++
		}
	}
	return m, nil
}

// sweepInts runs measure over a series of configurations derived by mod
// and assembles the standard four panels (MRPU, MIOCPU, selection runtime,
// approximation ratio) keyed by the varied value.
func sweepInts(title, param string, cfg Config, vals []int, mod func(Config, int) Config, withBaselineSel bool) ([]*Table, error) {
	topkT := &Table{Title: title + " — top-k phase", Header: []string{param, "B MRPU(ms)", "J MRPU(ms)", "B MIOCPU", "J MIOCPU"}}
	selT := &Table{Title: title + " — candidate selection", Header: []string{param, "Baseline(ms)", "Exact(ms)", "Approx(ms)", "ratio"}}
	for _, v := range vals {
		c := mod(cfg, v)
		m, err := measure(c, withBaselineSel)
		if err != nil {
			return nil, err
		}
		topkT.AddRow(fmt.Sprint(v), f2(m.Base.MRPU()), f2(m.Joint.MRPU()), f1(m.Base.MIOCPU()), f1(m.Joint.MIOCPU()))
		bm := "-"
		if withBaselineSel {
			bm = f1(m.SelBase.MeanMillis())
		}
		selT.AddRow(fmt.Sprint(v), bm, f1(m.SelExact.MeanMillis()), f2(m.SelApprox.MeanMillis()), f3(m.Ratio()))
	}
	return []*Table{topkT, selT}, nil
}

// Fig05 — effect of varying k across the three text measures: panels (a)
// MRPU and (b) MIOCPU comparing Baseline vs Joint, (c) candidate-selection
// runtime, (d) approximation ratio.
func Fig05(cfg Config, ks []int) ([]*Table, error) {
	if len(ks) == 0 {
		ks = []int{1, 5, 10, 20, 50}
	}
	measures := []textrel.MeasureKind{textrel.LM, textrel.TFIDF, textrel.KO}
	mrpu := &Table{Title: "Fig 5a — MRPU (ms) vs k", Header: []string{"k"}}
	iocost := &Table{Title: "Fig 5b — MIOCPU vs k", Header: []string{"k"}}
	sel := &Table{Title: "Fig 5c — selection runtime (ms) vs k", Header: []string{"k", "B(LM)"}}
	ratio := &Table{Title: "Fig 5d — approximation ratio vs k", Header: []string{"k"}}
	for _, ms := range measures {
		mrpu.Header = append(mrpu.Header, "B("+ms.String()+")", "J("+ms.String()+")")
		iocost.Header = append(iocost.Header, "B("+ms.String()+")", "J("+ms.String()+")")
		sel.Header = append(sel.Header, "E("+ms.String()+")", "A("+ms.String()+")")
		ratio.Header = append(ratio.Header, ms.String())
	}
	for _, k := range ks {
		mr := []string{fmt.Sprint(k)}
		io := []string{fmt.Sprint(k)}
		se := []string{fmt.Sprint(k)}
		ra := []string{fmt.Sprint(k)}
		for mi, ms := range measures {
			c := cfg
			c.K = k
			c.Measure = ms
			m, err := measure(c, mi == 0) // exhaustive baseline timed for LM only
			if err != nil {
				return nil, err
			}
			mr = append(mr, f2(m.Base.MRPU()), f2(m.Joint.MRPU()))
			io = append(io, f1(m.Base.MIOCPU()), f1(m.Joint.MIOCPU()))
			if mi == 0 {
				se = append(se, f1(m.SelBase.MeanMillis()))
			}
			se = append(se, f1(m.SelExact.MeanMillis()), f2(m.SelApprox.MeanMillis()))
			ra = append(ra, f3(m.Ratio()))
		}
		mrpu.AddRow(mr...)
		iocost.AddRow(io...)
		sel.AddRow(se...)
		ratio.AddRow(ra...)
	}
	return []*Table{mrpu, iocost, sel, ratio}, nil
}

// Fig06 — effect of varying α (LM only).
func Fig06(cfg Config, alphas []float64) ([]*Table, error) {
	if len(alphas) == 0 {
		alphas = []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	}
	topkT := &Table{Title: "Fig 6ab — top-k phase vs α", Header: []string{"alpha", "B MRPU(ms)", "J MRPU(ms)", "B MIOCPU", "J MIOCPU"}}
	selT := &Table{Title: "Fig 6cd — candidate selection vs α", Header: []string{"alpha", "Baseline(ms)", "Exact(ms)", "Approx(ms)", "ratio"}}
	for _, a := range alphas {
		c := cfg
		c.Alpha = a
		m, err := measure(c, true)
		if err != nil {
			return nil, err
		}
		topkT.AddRow(f1(a), f2(m.Base.MRPU()), f2(m.Joint.MRPU()), f1(m.Base.MIOCPU()), f1(m.Joint.MIOCPU()))
		selT.AddRow(f1(a), f1(m.SelBase.MeanMillis()), f1(m.SelExact.MeanMillis()), f2(m.SelApprox.MeanMillis()), f3(m.Ratio()))
	}
	return []*Table{topkT, selT}, nil
}

// Fig07 — effect of varying UL (keywords per user).
func Fig07(cfg Config, uls []int) ([]*Table, error) {
	if len(uls) == 0 {
		uls = []int{1, 2, 3, 4, 5, 6}
	}
	return sweepInts("Fig 7 — varying UL", "UL", cfg, uls, func(c Config, v int) Config {
		c.UL = v
		return c
	}, true)
}

// Fig08 — effect of varying UW (pooled unique user keywords = |W|).
func Fig08(cfg Config, uws []int) ([]*Table, error) {
	if len(uws) == 0 {
		uws = []int{5, 10, 20, 30, 40}
	}
	return sweepInts("Fig 8 — varying UW", "UW", cfg, uws, func(c Config, v int) Config {
		c.UW = v
		if c.WS > v {
			c.WS = v
		}
		return c
	}, true)
}

// Fig09 — effect of varying the user-region Area (top-k phase only, as in
// the paper).
func Fig09(cfg Config, areas []float64) ([]*Table, error) {
	if len(areas) == 0 {
		areas = []float64{1, 2, 5, 10, 20}
	}
	t := &Table{Title: "Fig 9 — top-k phase vs Area", Header: []string{"Area", "B MRPU(ms)", "J MRPU(ms)", "B MIOCPU", "J MIOCPU"}}
	for _, a := range areas {
		c := cfg
		c.Area = a
		m, err := measure(c, false)
		if err != nil {
			return nil, err
		}
		t.AddRow(f1(a), f2(m.Base.MRPU()), f2(m.Joint.MRPU()), f1(m.Base.MIOCPU()), f1(m.Joint.MIOCPU()))
	}
	return []*Table{t}, nil
}

// Fig10 — effect of varying |L| (selection phase only).
func Fig10(cfg Config, ls []int) ([]*Table, error) {
	if len(ls) == 0 {
		ls = []int{1, 20, 50, 100, 300}
	}
	t := &Table{Title: "Fig 10 — candidate selection vs |L|", Header: []string{"|L|", "Baseline(ms)", "Exact(ms)", "Approx(ms)", "ratio"}}
	for _, l := range ls {
		c := cfg
		c.NumLocs = l
		m, err := measure(c, true)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(l), f1(m.SelBase.MeanMillis()), f1(m.SelExact.MeanMillis()), f2(m.SelApprox.MeanMillis()), f3(m.Ratio()))
	}
	return []*Table{t}, nil
}

// Fig11 — effect of varying ws. The exact method's cost grows as
// C(|W|, ws); the default sweep stops at 5 where the paper (at testbed
// scale) reaches 8.
func Fig11(cfg Config, wss []int) ([]*Table, error) {
	if len(wss) == 0 {
		wss = []int{1, 2, 3, 4, 5}
	}
	t := &Table{Title: "Fig 11 — candidate selection vs ws", Header: []string{"ws", "Baseline(ms)", "Exact(ms)", "Approx(ms)", "ratio"}}
	for _, ws := range wss {
		c := cfg
		c.WS = ws
		m, err := measure(c, true)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(ws), f1(m.SelBase.MeanMillis()), f1(m.SelExact.MeanMillis()), f2(m.SelApprox.MeanMillis()), f3(m.Ratio()))
	}
	return []*Table{t}, nil
}

// Fig12 — effect of varying |U|: total (not per-user) runtime and I/O for
// the top-k phase, plus the selection panels.
func Fig12(cfg Config, us []int) ([]*Table, error) {
	if len(us) == 0 {
		us = []int{100, 500, 1000, 2000, 4000}
	}
	topkT := &Table{Title: "Fig 12ab — total top-k cost vs |U|", Header: []string{"|U|", "B total(ms)", "J total(ms)", "B total I/O", "J total I/O"}}
	selT := &Table{Title: "Fig 12cd — candidate selection vs |U|", Header: []string{"|U|", "Baseline(ms)", "Exact(ms)", "Approx(ms)", "ratio"}}
	for _, u := range us {
		c := cfg
		c.NumUsers = u
		m, err := measure(c, true)
		if err != nil {
			return nil, err
		}
		runs := float64(c.Runs)
		topkT.AddRow(fmt.Sprint(u), f1(m.Base.TotalMillis/runs), f1(m.Joint.TotalMillis/runs),
			d(m.Base.TotalIO/int64(c.Runs)), d(m.Joint.TotalIO/int64(c.Runs)))
		selT.AddRow(fmt.Sprint(u), f1(m.SelBase.MeanMillis()), f1(m.SelExact.MeanMillis()), f2(m.SelApprox.MeanMillis()), f3(m.Ratio()))
	}
	return []*Table{topkT, selT}, nil
}

// Fig13 — scalability in |O| (paper: 1M–8M; scaled down 100×). The
// selection panel compares Exact and Approx only, as in the paper.
func Fig13(cfg Config, os []int) ([]*Table, error) {
	if len(os) == 0 {
		os = []int{10000, 20000, 40000, 80000}
	}
	topkT := &Table{Title: "Fig 13ab — top-k phase vs |O|", Header: []string{"|O|", "B MRPU(ms)", "J MRPU(ms)", "B MIOCPU", "J MIOCPU"}}
	selT := &Table{Title: "Fig 13cd — candidate selection vs |O|", Header: []string{"|O|", "Exact(ms)", "Approx(ms)", "ratio"}}
	for _, o := range os {
		c := cfg
		c.NumObjects = o
		m, err := measure(c, false)
		if err != nil {
			return nil, err
		}
		topkT.AddRow(fmt.Sprint(o), f2(m.Base.MRPU()), f2(m.Joint.MRPU()), f1(m.Base.MIOCPU()), f1(m.Joint.MIOCPU()))
		selT.AddRow(fmt.Sprint(o), f1(m.SelExact.MeanMillis()), f2(m.SelApprox.MeanMillis()), f3(m.Ratio()))
	}
	return []*Table{topkT, selT}, nil
}

// Fig14 — the k sweep repeated on the Yelp-like dataset.
func Fig14(cfg Config, ks []int) ([]*Table, error) {
	if len(ks) == 0 {
		ks = []int{1, 5, 10, 20, 50}
	}
	c := cfg
	c.Dataset = Yelp
	if c.NumObjects > 5000 {
		c.NumObjects = 5000 // Yelp-like documents are ~15× longer
	}
	tables, err := sweepInts("Fig 14 — varying k (Yelp)", "k", c, ks, func(cc Config, v int) Config {
		cc.K = v
		return cc
	}, true)
	return tables, err
}
