package experiments

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/irtree"
	"repro/internal/textrel"
	"repro/internal/topk"
)

// datasetKey caches generated datasets across sweep points: a sweep over k
// or α re-uses the same objects, exactly as the paper fixes the dataset
// while varying one parameter.
type datasetKey struct {
	kind DatasetKind
	n    int
	seed int64
}

var (
	dsCacheMu sync.Mutex
	dsCache   = map[datasetKey]*dataset.Dataset{}
)

// datasetFor returns (building and caching on first use) the dataset for a
// configuration.
func datasetFor(cfg Config) *dataset.Dataset {
	key := datasetKey{cfg.Dataset, cfg.NumObjects, cfg.Seed}
	dsCacheMu.Lock()
	defer dsCacheMu.Unlock()
	if ds, ok := dsCache[key]; ok {
		return ds
	}
	var ds *dataset.Dataset
	switch cfg.Dataset {
	case Yelp:
		c := dataset.DefaultYelpConfig(cfg.NumObjects)
		c.Seed = cfg.Seed
		ds = dataset.GenerateYelp(c)
	case Flickr:
		c := dataset.DefaultFlickrConfig(cfg.NumObjects)
		c.Seed = cfg.Seed
		ds = dataset.GenerateFlickr(c)
	default:
		panic(fmt.Sprintf("experiments: unknown dataset kind %d", int(cfg.Dataset)))
	}
	dsCache[key] = ds
	return ds
}

// Workload is one fully prepared experiment instance: dataset, one user
// set, candidate locations, scorer, and both index variants.
type Workload struct {
	Cfg    Config
	DS     *dataset.Dataset
	US     dataset.UserSet
	Locs   []geo.Point
	Scorer *textrel.Scorer
	// IR is the plain IR-tree the baseline searches; MIR the min-max
	// variant the joint algorithm uses.
	IR  *irtree.Tree
	MIR *irtree.Tree
}

// NewWorkload materializes the workload for one run (user sets differ per
// run index, as the paper averages over 100 generated user sets).
func NewWorkload(cfg Config, run int) *Workload {
	ds := datasetFor(cfg)
	us := dataset.GenerateUsers(ds, dataset.UserConfig{
		NumUsers: cfg.NumUsers, UL: cfg.UL, UW: cfg.UW, Area: cfg.Area,
		Seed: cfg.Seed*1000 + int64(run),
	})
	margin := float64(cfg.Area/4) + 0.5
	if cfg.LocMargin != 0 {
		margin = cfg.LocMargin
	}
	locs := dataset.CandidateLocations(us.Region, cfg.NumLocs, margin, cfg.Seed*77+int64(run))
	scorer := textrel.NewScorer(ds, cfg.Measure, cfg.Alpha, dataset.UsersMBR(us.Users), geo.MBR(locs))
	return &Workload{
		Cfg:    cfg,
		DS:     ds,
		US:     us,
		Locs:   locs,
		Scorer: scorer,
		IR:     irtree.Build(ds, scorer.Model, irtree.Config{Kind: irtree.IRTree, Fanout: cfg.Fanout}),
		MIR:    irtree.Build(ds, scorer.Model, irtree.Config{Kind: irtree.MIRTree, Fanout: cfg.Fanout}),
	}
}

// Query builds the MaxBRSTkNN query of this workload.
func (w *Workload) Query() core.Query {
	return core.Query{
		Locations: w.Locs,
		Keywords:  w.US.Keywords,
		WS:        w.Cfg.WS,
		K:         w.Cfg.K,
	}
}

// MeasureBaselineTopK times the per-user top-k phase on the IR-tree.
func (w *Workload) MeasureBaselineTopK() (TopKMetrics, error) {
	return w.timeTopK(w.IR, func() error {
		_, err := topk.BaselineTopK(w.IR, w.Scorer, w.US.Users, w.Cfg.K)
		return err
	})
}

// MeasureJointTopK times the shared top-k phase on the MIR-tree,
// sequentially, as the paper runs it, and returns the engine and the
// thresholds it prepared.
func (w *Workload) MeasureJointTopK() (TopKMetrics, *core.Engine, core.Thresholds, error) {
	e := core.NewEngine(w.MIR, w.Scorer, w.US.Users)
	var th core.Thresholds
	m, err := w.timeTopK(w.MIR, func() (err error) {
		th, err = e.Prepare(w.Cfg.K, 0, 0)
		return err
	})
	return m, e, th, err
}

// timeTopK times one top-k phase over tree and reads its simulated I/O.
func (w *Workload) timeTopK(tree *irtree.Tree, phase func() error) (TopKMetrics, error) {
	tree.IO().Reset()
	start := time.Now()
	err := phase()
	return TopKMetrics{
		TotalMillis: float64(time.Since(start).Microseconds()) / 1000,
		TotalIO:     tree.IO().Total(),
		Users:       len(w.US.Users),
	}, err
}

// selectBest runs phase 2 under th and reduces it to the MaxBRSTkNN answer.
func selectBest(e *core.Engine, q core.Query, th core.Thresholds, spec core.ScanSpec) (core.Selection, error) {
	cands, _, err := e.Scan(q, th, spec)
	return core.Best(cands), err
}
