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
//	benchrunner -exp scaling             # parallel-engine speedup figure
//	benchrunner -exp disk                # cold vs warm disk-backed serving
//
// The experiments are experiments.All's entries, in its order; -h lists
// their names. Serving performance (latency, throughput, memory,
// per-layer counters) is measured by bench/, not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/textrel"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "comma-separated experiment list (or 'all'):"+names())
		quick   = flag.Bool("quick", false, "use the small smoke-test configuration")
		objects = flag.Int("objects", 0, "override |O|")
		users   = flag.Int("users", 0, "override |U|")
		runs    = flag.Int("runs", 0, "override user-set repetitions")
		measure = flag.String("measure", "", "text measure: lm, tfidf, ko")
		seed    = flag.Int64("seed", 0, "override dataset seed")
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

	want := strings.Fields(strings.ToLower(strings.ReplaceAll(*exp, ",", " ")))

	fmt.Printf("# MaxBRSTkNN benchrunner — |O|=%d |U|=%d k=%d alpha=%.1f UL=%d UW=%d Area=%.0f |L|=%d ws=%d measure=%s runs=%d\n\n",
		cfg.NumObjects, cfg.NumUsers, cfg.K, cfg.Alpha, cfg.UL, cfg.UW, cfg.Area, cfg.NumLocs, cfg.WS, cfg.Measure, cfg.Runs)

	matched := false
	for _, e := range experiments.All() {
		if *exp != "all" && !slices.Contains(want, e.Name) {
			continue
		}
		matched = true
		start := time.Now()
		tables, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.Name, err)
			os.Exit(1)
		}
		for _, t := range tables {
			fmt.Println(t.String())
		}
		fmt.Printf("(%s completed in %.1fs)\n\n", e.Name, time.Since(start).Seconds())
	}
	if !matched {
		fmt.Fprintf(os.Stderr, "no experiment matched %q\n", *exp)
		os.Exit(2)
	}
}

// names lists the experiments' names.
func names() (s string) {
	for _, e := range experiments.All() {
		s += " " + e.Name
	}
	return s
}
