// Command benchrunner regenerates the tables and figures of the paper's
// evaluation (Section 8). Each experiment prints one or more aligned text
// tables whose rows correspond to the figure's data series.
//
// Usage:
//
//	benchrunner -exp all                 # every table and figure (slow)
//	benchrunner -exp fig5,fig10          # selected experiments
//	benchrunner -exp fig13 -objects 40000
//	benchrunner -exp table4 -quick       # smoke scale
//	benchrunner -exp scaling -groups 8   # parallel-engine speedup figure
//	benchrunner -exp disk                # cold vs warm disk-backed serving
//
// Experiments: table4 table5 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12
// fig13 fig14 fig15 ablations scaling disk. These are the paper's figures
// plus the engine's own scaling and disk tables; serving performance
// (latency, throughput, memory, per-layer counters) is measured by bench/,
// not here.
//
// The scaling experiment sweeps the parallel engine over 1/2/4/8 workers;
// -groups pins the super-user group count across the sweep (default: one
// group per worker) and -workers overrides the engine parallelism used
// when regenerating the other figures (0 keeps them sequential, the
// paper's setting).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/textrel"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "comma-separated experiment list (or 'all')")
		quick   = flag.Bool("quick", false, "use the small smoke-test configuration")
		objects = flag.Int("objects", 0, "override |O|")
		users   = flag.Int("users", 0, "override |U|")
		runs    = flag.Int("runs", 0, "override user-set repetitions")
		measure = flag.String("measure", "", "text measure: lm, tfidf, ko")
		seed    = flag.Int64("seed", 0, "override dataset seed")
		workers = flag.Int("workers", 0, "parallel engine workers (0 = sequential)")
		groups  = flag.Int("groups", 0, "super-user groups for the parallel joint phase (0 = one per worker)")
	)
	flag.Parse()

	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	if *objects > 0 {
		cfg.NumObjects = *objects
	}
	if *users > 0 {
		cfg.NumUsers = *users
	}
	if *runs > 0 {
		cfg.Runs = *runs
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *workers > 0 {
		cfg.Workers = *workers
	}
	if *groups > 0 {
		cfg.Groups = *groups
	}
	switch strings.ToLower(*measure) {
	case "":
	case "lm":
		cfg.Measure = textrel.LM
	case "tfidf", "tf":
		cfg.Measure = textrel.TFIDF
	case "ko":
		cfg.Measure = textrel.KO
	default:
		fmt.Fprintf(os.Stderr, "unknown measure %q\n", *measure)
		os.Exit(2)
	}

	type runner func() ([]*experiments.Table, error)
	all := []struct {
		name string
		run  runner
	}{
		{"table4", func() ([]*experiments.Table, error) {
			t, err := experiments.Table4(cfg)
			return []*experiments.Table{t}, err
		}},
		{"table5", func() ([]*experiments.Table, error) {
			return []*experiments.Table{experiments.Table5(cfg)}, nil
		}},
		{"fig5", func() ([]*experiments.Table, error) { return experiments.Fig05(cfg, nil) }},
		{"fig6", func() ([]*experiments.Table, error) { return experiments.Fig06(cfg, nil) }},
		{"fig7", func() ([]*experiments.Table, error) { return experiments.Fig07(cfg, nil) }},
		{"fig8", func() ([]*experiments.Table, error) { return experiments.Fig08(cfg, nil) }},
		{"fig9", func() ([]*experiments.Table, error) { return experiments.Fig09(cfg, nil) }},
		{"fig10", func() ([]*experiments.Table, error) { return experiments.Fig10(cfg, nil) }},
		{"fig11", func() ([]*experiments.Table, error) { return experiments.Fig11(cfg, nil) }},
		{"fig12", func() ([]*experiments.Table, error) { return experiments.Fig12(cfg, nil) }},
		{"fig13", func() ([]*experiments.Table, error) { return experiments.Fig13(cfg, nil) }},
		{"fig14", func() ([]*experiments.Table, error) { return experiments.Fig14(cfg, nil) }},
		{"fig15", func() ([]*experiments.Table, error) { return experiments.Fig15(cfg, nil) }},
		{"scaling", func() ([]*experiments.Table, error) { return experiments.FigScaling(cfg) }},
		{"disk", func() ([]*experiments.Table, error) { return experiments.FigDisk(cfg) }},
		{"ablations", func() ([]*experiments.Table, error) {
			var out []*experiments.Table
			for _, fn := range []func(experiments.Config) (*experiments.Table, error){
				experiments.AblationMinWeights,
				experiments.AblationSuperUser,
				experiments.AblationBestFirst,
			} {
				t, err := fn(cfg)
				if err != nil {
					return nil, err
				}
				out = append(out, t)
			}
			return out, nil
		}},
	}

	want := map[string]bool{}
	runAll := *exp == "all"
	for _, name := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(strings.ToLower(name))] = true
	}

	fmt.Printf("# MaxBRSTkNN benchrunner — |O|=%d |U|=%d k=%d alpha=%.1f UL=%d UW=%d Area=%.0f |L|=%d ws=%d measure=%s runs=%d\n\n",
		cfg.NumObjects, cfg.NumUsers, cfg.K, cfg.Alpha, cfg.UL, cfg.UW, cfg.Area, cfg.NumLocs, cfg.WS, cfg.Measure, cfg.Runs)

	matched := false
	for _, e := range all {
		if !runAll && !want[e.name] {
			continue
		}
		matched = true
		start := time.Now()
		tables, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
		for _, t := range tables {
			fmt.Println(t.String())
		}
		fmt.Printf("(%s completed in %.1fs)\n\n", e.name, time.Since(start).Seconds())
	}
	if !matched {
		fmt.Fprintf(os.Stderr, "no experiment matched %q\n", *exp)
		os.Exit(2)
	}
}
