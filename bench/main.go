// Command bench is the repository's serving benchmark: it generates a
// seeded dataset, builds the index, serves it from this process on
// loopback listeners, drives it over real HTTP, verifies the answers and
// prints every metric by name. See README.md for the workloads and the
// tables; BENCHMARK.json is the same contract for the PR driver.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// environment stamps a run with what it ran on.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Started    string `json:"started"`
}

func stampEnvironment() environment {
	env := environment{
		Commit: "unknown", GoVersion: runtime.Version(), CPU: "unknown",
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Started: time.Now().UTC().Format(time.RFC3339),
	}
	// go build stamps the commit into the binary when it builds inside a
	// git checkout; no git child process is needed to read it back.
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				env.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					env.Commit += "+dirty"
				}
			}
		}
	}
	if cpuinfo, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(cpuinfo), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return env
}

// report is result.json: everything one invocation measured.
type report struct {
	Environment environment `json:"environment"`
	Quick       bool        `json:"quick"`
	Results     []result    `json:"results"`
}

// options is one invocation's command line.
type options struct {
	workload string // empty: all of them
	seed     int64  // of the request schedule
	seconds  float64
	traced   bool
	quick    bool
	outDir   string
}

// run executes the invocation and returns its report; the caller prints
// and exits. The tier-1 test calls it in-process.
func run(opt options, out io.Writer) (report, error) {
	sc := fullScale
	if opt.quick {
		sc = quickScale
	}
	selected := workloads
	if opt.workload != "" {
		w, err := findWorkload(opt.workload)
		if err != nil {
			return report{}, err
		}
		selected = []workload{w}
	}
	rep := report{Environment: stampEnvironment(), Quick: opt.quick}
	dir := filepath.Join(opt.outDir, fmt.Sprintf("%s-%d", time.Now().UTC().Format("20060102T150405"), os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return rep, err
	}
	fmt.Fprintf(out, "bench: commit %s, %s, %s, nproc %d, GOMAXPROCS %d, seed %d, output %s\n",
		rep.Environment.Commit, rep.Environment.GoVersion, rep.Environment.CPU,
		rep.Environment.NumCPU, rep.Environment.GOMAXPROCS, opt.seed, dir)
	window := time.Duration(opt.seconds * float64(time.Second))
	for _, w := range selected {
		res, err := runWorkload(w, sc, opt.seed, window, opt.traced, dir)
		if err != nil {
			return rep, fmt.Errorf("%s: %w", w.name, err)
		}
		printResult(out, res)
		rep.Results = append(rep.Results, res)
	}
	return rep, writeJSON(filepath.Join(dir, "result.json"), rep)
}

// driverLine is the last line of a single-workload run, the form the PR
// driver reads.
func driverLine(r result) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, m := range r.Metrics {
		ms[m.Name] = value{m.Value, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, ms})
}

func main() {
	var opt options
	var trace int
	var compare bool
	var watchdog time.Duration
	flag.StringVar(&opt.workload, "workload", "", "run one workload: cohort-fresh, cohort-repeat, sharded-fresh or topk-ingest (default: all four)")
	flag.Int64Var(&opt.seed, "seed", 1, "seed of the request schedule: every cohort, candidate set, reader and written object")
	flag.Float64Var(&opt.seconds, "seconds", 0, "length of the measured window (default 12, with -quick 1)")
	flag.IntVar(&trace, "trace", 0, "1: traced run, reports the per-layer table instead of the end-to-end metrics")
	flag.BoolVar(&opt.quick, "quick", false, "smoke-test size: 2k objects, short warm-ups and replays")
	flag.StringVar(&opt.outDir, "out", filepath.Join("bench", "out"), "directory that receives <stamp>/result.json, samples and traces")
	flag.BoolVar(&compare, "compare", false, "compare two result.json files (bench -compare a.json b.json) and exit")
	flag.DurationVar(&watchdog, "watchdog", 0, "hard wall-clock limit, after which the process exits with status 3 (default: 170s for each workload run)")
	flag.Parse()

	if compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout))
	}
	if flag.NArg() != 0 || trace < 0 || trace > 1 || opt.seconds < 0 {
		flag.Usage()
		os.Exit(2)
	}
	opt.traced = trace == 1
	if opt.seconds == 0 {
		opt.seconds = 12
		if opt.quick {
			opt.seconds = 1
		}
	}
	// Whatever goes wrong, the process does not outlive its limit.
	if watchdog <= 0 {
		watchdog = 170 * time.Second
		if opt.workload == "" {
			watchdog *= time.Duration(len(workloads))
		}
	}
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "bench: still running after %s, giving up\n", watchdog)
		os.Exit(3)
	})

	rep, err := run(opt, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	status := 0
	for _, r := range rep.Results {
		if r.Failed > 0 {
			status = 1
		}
	}
	if len(rep.Results) == 1 {
		line, err := driverLine(rep.Results[0])
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", line)
	}
	os.Exit(status)
}
