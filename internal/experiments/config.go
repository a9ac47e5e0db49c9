// Package experiments reproduces the evaluation of Section 8: every figure
// and table is one entry of All, whose runner regenerates its rows
// (workload generation, parameter sweep, baseline and proposed methods,
// metric collection); Figures 6–14 are rows of one sweep table, which
// Table 5 lists. The absolute numbers differ from the paper — the
// substrate is a simulator at laptop scale, not the authors' testbed —
// but each runner reports the series whose *shape* (which method wins,
// and how cost grows along the swept parameter) is what compares against
// the paper's figure.
package experiments

import (
	"repro/internal/textrel"
)

// Experiment is one named entry of the evaluation: Run regenerates its
// tables under a configuration.
type Experiment struct {
	Name string
	Run  func(Config) ([]*Table, error)
}

// All is every experiment, in the order benchrunner prints them: the
// paper's tables and figures, then the engine's scaling and disk tables
// and the ablations.
func All() []Experiment {
	all := []Experiment{
		{"table4", func(c Config) ([]*Table, error) { return []*Table{Table4(c)}, nil }},
		{"table5", func(c Config) ([]*Table, error) { return []*Table{Table5(c)}, nil }},
		{"fig5", func(c Config) ([]*Table, error) { return Fig05(c, nil) }},
	}
	for _, s := range sweeps {
		all = append(all, Experiment{s.name, func(c Config) ([]*Table, error) { return s.run(c, nil) }})
	}
	return append(all,
		Experiment{"fig15", func(c Config) ([]*Table, error) { return Fig15(c, nil) }},
		Experiment{"scaling", FigScaling},
		Experiment{"disk", FigDisk},
		Experiment{"ablations", func(c Config) ([]*Table, error) {
			var out []*Table
			for _, a := range ablations {
				t, err := a.run(c)
				if err != nil {
					return nil, err
				}
				out = append(out, t)
			}
			return out, nil
		}},
	)
}

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
