package core

import (
	"reflect"
	"testing"

	"repro/internal/textrel"
)

// TestParallelEquivalence is the engine half of the determinism guarantee
// (ISSUE 1 acceptance): Prepare and Scan must produce results identical to
// the sequential pipeline for every Workers × Groups × method combination,
// on several seeded datasets and relevance models.
func TestParallelEquivalence(t *testing.T) {
	cases := []struct {
		name    string
		measure textrel.MeasureKind
		alpha   float64
		seed    int64
	}{
		{"lm", textrel.LM, 0.5, 1},
		{"tfidf", textrel.TFIDF, 0.5, 2},
		{"ko-spatial", textrel.KO, 0.8, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t, tc.measure, tc.alpha, 400, 80, 8, tc.seed)
			q := f.query(2, 5)

			seq := f.prepare(t, q.K)
			seqExact := f.best(t, q, seq, ScanSpec{})
			seqApprox := f.best(t, q, seq, ScanSpec{Method: KeywordsApprox})

			for _, workers := range []int{1, 2, 8} {
				for _, groups := range []int{1, 4} {
					par, err := f.engine.Prepare(q.K, workers, groups)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(par, seq) {
						t.Fatalf("workers=%d groups=%d: prepared thresholds differ", workers, groups)
					}
					if got := f.best(t, q, par, ScanSpec{Workers: workers}); !reflect.DeepEqual(got, seqExact) {
						t.Fatalf("workers=%d groups=%d exact: got %+v, want %+v", workers, groups, got, seqExact)
					}
					if got := f.best(t, q, par, ScanSpec{Method: KeywordsApprox, Workers: workers}); !reflect.DeepEqual(got, seqApprox) {
						t.Fatalf("workers=%d groups=%d approx: got %+v, want %+v", workers, groups, got, seqApprox)
					}
				}
			}
		})
	}
}
