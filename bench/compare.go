package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readReport(path string) (report, error) {
	var r report
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareFiles prints one row per end-to-end metric × workload present
// in both reports — a's value, b's value, how much worse b is as a share
// of a, and the metric's bound — and returns 1 if any row is outside its
// bound or either run had failures, 2 if the files cannot be compared.
func compareFiles(a, b string, out io.Writer) int {
	ra, err := readReport(a)
	if err == nil {
		var rb report
		if rb, err = readReport(b); err == nil {
			return compareReports(ra, rb, out)
		}
	}
	fmt.Fprintln(os.Stderr, "bench -compare:", err)
	return 2
}

func compareReports(a, b report, out io.Writer) int {
	status, rows := 0, 0
	fmt.Fprintf(out, "%-14s %-16s %12s %12s %9s %6s\n", "workload", "metric", "a", "b", "worse", "bound")
	for _, ra := range a.Results {
		for _, rb := range b.Results {
			if ra.Workload != rb.Workload || ra.Traced || rb.Traced {
				continue
			}
			for _, d := range endToEnd {
				ma, okA := ra.metric(d.Name)
				mb, okB := rb.metric(d.Name)
				if !okA || !okB {
					continue
				}
				rows++
				// worse > 0 means b is worse than a, whichever way
				// the metric points.
				worse := ratio(mb.Value-ma.Value, ma.Value)
				if d.Better == "higher" {
					worse = -worse
				}
				mark := ""
				if worse > d.Bound {
					mark, status = "  OUTSIDE BOUND", 1
				}
				fmt.Fprintf(out, "%-14s %-16s %12.4f %12.4f %+8.1f%% %5.0f%%%s\n",
					ra.Workload, d.Name, ma.Value, mb.Value, 100*worse, 100*d.Bound, mark)
			}
			for _, r := range []result{ra, rb} {
				if r.Failed > 0 {
					fmt.Fprintf(out, "%-14s failed_share %g (%d of %d)  FAILURES\n", r.Workload, r.FailedShare, r.Failed, r.Attempted)
					status = 1
				}
			}
			if ra.Seed == rb.Seed && ra.AnswersDigest != rb.AnswersDigest {
				fmt.Fprintf(out, "%-14s answers_digest differs for seed %d  MISMATCH\n", ra.Workload, ra.Seed)
				status = 1
			}
		}
	}
	if rows == 0 {
		fmt.Fprintln(out, "no untraced workload is in both reports")
		return 2
	}
	return status
}
