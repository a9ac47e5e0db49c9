package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON is BENCHMARK.json, the contract the PR driver reads.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestContractMatchesTables keeps BENCHMARK.json and the tables in
// metrics.go and workloads.go saying the same thing.
func TestContractMatchesTables(t *testing.T) {
	b := readBenchmarkJSON(t)
	if want := []string{"sh", "bench/run.sh"}; !reflect.DeepEqual(b.Command, want) {
		t.Errorf("command = %v, want %v", b.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(b.Paths, want) {
		t.Errorf("paths = %v, want %v", b.Paths, want)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", b.RunSeconds)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads = %v, want %v", names, want)
	}

	var e2e, layers []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range b.PerLayer {
		layers = append(layers, metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end differs from metrics.go:\n json %v\n code %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer differs from metrics.go:\n json %v\n code %v", layers, perLayer)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q (unit %q): bad or repeated name or unit", d.Name, d.Unit)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %g outside [0, 0.25]", d.Name, d.Bound)
		}
	}
}

// checkEmitted fails unless r reports exactly the metrics of defs, in
// order, each with its unit.
func checkEmitted(t *testing.T, r result, defs []metricDef) {
	t.Helper()
	if len(r.Metrics) != len(defs) {
		t.Fatalf("%s: %d metrics emitted, %d declared", r.Workload, len(r.Metrics), len(defs))
	}
	for i, d := range defs {
		if m := r.Metrics[i]; m.Name != d.Name || m.Unit != d.Unit {
			t.Errorf("%s: metric %d is %s [%s], declared %s [%s]", r.Workload, i, m.Name, m.Unit, d.Name, d.Unit)
		}
	}
	if r.Failed != 0 || r.FailedShare != 0 || r.Samples == 0 || r.Verified == 0 {
		t.Errorf("%s: failed %d (share %g), %d samples, %d verified; notes %v",
			r.Workload, r.Failed, r.FailedShare, r.Samples, r.Verified, r.Notes)
	}
}

// TestQuick runs all four workloads at smoke-test size, untraced and
// traced, in this process: every declared metric comes out, nothing
// else does, no operation fails, and the layers add up.
func TestQuick(t *testing.T) {
	digests := map[string]string{}
	for _, traced := range []bool{false, true} {
		rep, err := run(options{seed: 1, seconds: 0.4, traced: traced, quick: true, outDir: t.TempDir()}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Results) != len(workloads) {
			t.Fatalf("%d results for %d workloads", len(rep.Results), len(workloads))
		}
		for i, r := range rep.Results {
			if r.Workload != workloads[i].name {
				t.Errorf("result %d is %s, want %s", i, r.Workload, workloads[i].name)
			}
			if !traced {
				checkEmitted(t, r, endToEnd)
				for _, m := range r.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: %s = %g, must be positive", r.Workload, m.Name, m.Value)
					}
				}
				digests[r.Workload] = r.AnswersDigest
				continue
			}
			checkEmitted(t, r, perLayer)
			// The band is [0.9, 1.1] at full size on a quiet machine.
			// Here operations take a fraction of a millisecond and the
			// rest of the test suite competes for two cores — and the
			// coordinator's wire coding and merges, which the sharded sum
			// leaves out, are a fifth of such a request — so only a sum
			// that is plainly broken fails.
			if m, _ := r.metric("trace.layers_sum_share"); m.Value < 0.6 || m.Value > 1.3 {
				t.Errorf("%s: trace.layers_sum_share = %g, outside [0.6, 1.3]", r.Workload, m.Value)
			}
			if r.AnswersDigest != digests[r.Workload] {
				t.Errorf("%s: answers_digest differs between the traced and the untraced run of one seed", r.Workload)
			}
		}
	}
	if digests["cohort-fresh"] == "" || digests["cohort-fresh"] != digests["sharded-fresh"] {
		t.Errorf("cohort-fresh and sharded-fresh share a schedule and must share a digest: %q vs %q",
			digests["cohort-fresh"], digests["sharded-fresh"])
	}
}

func TestCompare(t *testing.T) {
	mk := func(p50, rps float64) report {
		return report{Results: []result{{Workload: "cohort-fresh", Seed: 1, Attempted: 10, Metrics: []metricValue{
			{"latency_p50_ms", p50, "ms"}, {"throughput_rps", rps, "1/s"},
		}}}}
	}
	for _, c := range []struct {
		name string
		a, b report
		want int
	}{
		{"same", mk(50, 40), mk(50, 40), 0},
		{"better", mk(50, 40), mk(30, 60), 0},
		{"inside the bound", mk(50, 40), mk(54, 38), 0},
		{"slower", mk(50, 40), mk(70, 40), 1},
		{"less throughput", mk(50, 40), mk(50, 25), 1},
		{"nothing in common", mk(50, 40), report{}, 2},
	} {
		if got := compareReports(c.a, c.b, io.Discard); got != c.want {
			t.Errorf("%s: compare = %d, want %d", c.name, got, c.want)
		}
	}
	failed := mk(50, 40)
	failed.Results[0].Failed = 1
	if got := compareReports(mk(50, 40), failed, io.Discard); got != 1 {
		t.Errorf("a run with failures must not compare clean, got %d", got)
	}
}

func TestPercentileAndUnion(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("p50 = %g, want 3", got)
	}
	if got := percentile(xs, 95); got != 5 {
		t.Errorf("p95 = %g, want 5", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %g, want 0", got)
	}
	spans := []span{{Start: 0, End: 10}, {Start: 5, End: 12}, {Start: 20, End: 25}, {Start: 21, End: 22}}
	if got := union(spans); got != 17 {
		t.Errorf("union = %d, want 17", got)
	}
}
