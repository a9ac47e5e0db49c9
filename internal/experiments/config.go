// Package experiments reproduces the evaluation of Section 8: every figure
// and table has a runner that regenerates its rows (workload generation,
// parameter sweep, baseline and proposed methods, metric collection). The
// absolute numbers differ from the paper — the substrate is a simulator at
// laptop scale, not the authors' testbed — but each runner reports the
// series whose *shape* (which method wins, and how cost grows along the
// swept parameter) is what compares against the paper's figure.
package experiments

import (
	"repro/internal/textrel"
)

// DatasetKind selects the synthetic workload family (the stand-ins of
// package dataset).
type DatasetKind int

const (
	// Flickr mimics the Yahoo I3 Flickr collection: many objects, short
	// tag documents.
	Flickr DatasetKind = iota
	// Yelp mimics the Yelp academic dataset: fewer objects, long review
	// documents.
	Yelp
)

// String implements fmt.Stringer.
func (d DatasetKind) String() string {
	if d == Yelp {
		return "Yelp"
	}
	return "Flickr"
}

// Config is one experiment configuration — the Table 5 parameters plus the
// scale knobs of our reproduction.
type Config struct {
	Dataset    DatasetKind
	NumObjects int // |O| (paper default 1M; scaled)
	NumUsers   int // |U| (paper default 1K)
	K          int // top-k depth (paper default 10)
	Alpha      float64
	UL         int     // keywords per user
	UW         int     // pooled unique user keywords = |W|
	Area       float64 // user region side length
	NumLocs    int     // |L|
	WS         int
	Measure    textrel.MeasureKind
	Fanout     int
	Runs       int // user-set repetitions averaged (paper: 100)
	Seed       int64
	// LocMargin overrides the candidate-location dispersion around the
	// user region (0 keeps the default Area/4+0.5; negative values
	// concentrate locations inside the region).
	LocMargin float64
	// Workers and Groups configure the parallel query engine when
	// regenerating the figures (joint phase and candidate selection).
	// Zero values mean sequential / derived-from-Workers respectively —
	// the paper's setting. FigScaling sweeps its own worker counts and
	// reads only Groups (to pin the group count across the sweep).
	Workers int
	Groups  int
	// DecodedCacheBytes budgets the decoded-object cache of the
	// workload's trees. Zero — the default for every paper figure —
	// keeps the trees cold so every node visit charges simulated I/O,
	// the Section 8 accounting. The root package's benchmarks opt in to
	// measure the warm serving path.
	DecodedCacheBytes int64
}

// Default returns the scaled equivalent of the paper's bold defaults
// (Table 5): k=10, α=0.5, UL=3, UW=20, Area=5, |L|=50, ws=3, |U|=1K —
// with |O| scaled from 1M to 20K and runs from 100 to 3 so the whole
// suite executes in minutes rather than days.
func Default() Config {
	return Config{
		Dataset:    Flickr,
		NumObjects: 20000,
		NumUsers:   1000,
		K:          10,
		Alpha:      0.5,
		UL:         3,
		UW:         20,
		Area:       5,
		NumLocs:    50,
		WS:         3,
		Measure:    textrel.LM,
		Fanout:     32,
		Runs:       3,
		Seed:       1,
	}
}

// Quick returns a configuration small enough for unit tests and smoke
// benchmarks.
func Quick() Config {
	c := Default()
	c.NumObjects = 2000
	c.NumUsers = 100
	c.NumLocs = 10
	c.UW = 12
	c.WS = 2
	c.Runs = 2
	return c
}
