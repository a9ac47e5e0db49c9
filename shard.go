package maxbrstknn

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/textrel"
	"repro/internal/topk"
	"repro/internal/vocab"
)

// FrozenCorpus captures the global corpus context of an index at build
// time: the vocabulary, the collection-level term statistics, the object
// space rectangle, and the relevance model's per-term corpus maxima. It
// is everything a shard build needs so that a shard index — holding only
// a subset of the objects — scores, normalizes, and bounds exactly like
// the global index: frozen stats make every term weight bit-identical,
// and the frozen space makes dmax (Equation 2) identical for any query.
//
// FrozenCorpus reflects the snapshot's build-time vocabulary (the one the
// corpus statistics and model cover), so capture it before mutating the
// index.
type FrozenCorpus struct {
	// Terms is the vocabulary in term-id order.
	Terms []string
	// CollectionFreq, DocFreq, TotalTerms, NumDocs are the global
	// dataset.CorpusStats.
	CollectionFreq []int64
	DocFreq        []int32
	TotalTerms     int64
	NumDocs        int32
	// Space is the global object MBR as {MinX, MinY, MaxX, MaxY}.
	Space [4]float64
	// MaxW is the model's per-term maximum weight over the global corpus
	// (the UB machinery's only object-derived state).
	MaxW []float64
}

// FrozenCorpus extracts the index's frozen global context for shard
// builds.
func (ix *Index) FrozenCorpus() FrozenCorpus {
	sn := ix.acquire()
	defer sn.tree.Unpin()
	return frozenCorpus(sn.tree.Dataset(), ix.model, sn.vocab.Term)
}

// FrozenCorpusOf computes a dataset's frozen global context directly —
// statistics, space, and model maxima, with no tree build — so a shard
// process can derive the context from the raw dataset without ever
// materializing the global index. The result is identical to building
// the global index with the same options and calling Index.FrozenCorpus:
// both construct the model through the one shared path.
func FrozenCorpusOf(ds *dataset.Dataset, opts Options) (FrozenCorpus, error) {
	if err := opts.Validate(); err != nil {
		return FrozenCorpus{}, err
	}
	if len(ds.Objects) == 0 {
		return FrozenCorpus{}, fmt.Errorf("maxbrstknn: empty dataset")
	}
	return frozenCorpus(ds, opts.newModel(ds), ds.Vocab.Term), nil
}

// frozenCorpus copies a dataset's build-time statistics and space, and
// the model's maxima, naming each build-time term id through term.
func frozenCorpus(ds *dataset.Dataset, model *textrel.Model, term func(vocab.TermID) string) FrozenCorpus {
	n := len(ds.Stats.CollectionFreq) // build-time vocabulary size
	fc := FrozenCorpus{
		Terms:          make([]string, n),
		CollectionFreq: append([]int64(nil), ds.Stats.CollectionFreq...),
		DocFreq:        append([]int32(nil), ds.Stats.DocFreq...),
		TotalTerms:     ds.Stats.TotalTerms,
		NumDocs:        ds.Stats.NumDocs,
		Space:          [4]float64{ds.Space.Min.X, ds.Space.Min.Y, ds.Space.Max.X, ds.Space.Max.Y},
		MaxW:           textrel.MaxWeights(model, n),
	}
	for id := range fc.Terms {
		fc.Terms[id] = term(vocab.TermID(id))
	}
	return fc
}

// ShardBuilder accumulates one shard's slice of the global object set
// before building a ShardIndex under a frozen global corpus context.
type ShardBuilder struct {
	frozen  FrozenCorpus
	vocab   *vocab.Vocabulary
	objects []dataset.Object
	gids    []int32
}

// NewShardBuilder returns an empty builder for one shard of the corpus
// frozen in fc.
func NewShardBuilder(fc FrozenCorpus) *ShardBuilder {
	v := vocab.New()
	for _, t := range fc.Terms {
		v.Add(t)
	}
	return &ShardBuilder{frozen: fc, vocab: v}
}

// AddObject registers one global object in this shard. globalID is the
// object's id in the global index; every keyword must belong to the
// frozen vocabulary (shard inputs are a split of the global dataset, so
// an unknown keyword is a split bug, not data). Objects may arrive in any
// order — Build sorts them by global id.
func (b *ShardBuilder) AddObject(globalID int, x, y float64, keywords ...string) error {
	if globalID < 0 {
		return fmt.Errorf("maxbrstknn: negative global object id %d", globalID)
	}
	if err := checkPoint(x, y); err != nil {
		return err
	}
	terms := make([]vocab.TermID, len(keywords))
	for i, kw := range keywords {
		id, ok := b.vocab.Lookup(kw)
		if !ok {
			return fmt.Errorf("maxbrstknn: shard keyword %q not in the frozen vocabulary", kw)
		}
		terms[i] = id
	}
	b.gids = append(b.gids, int32(globalID))
	b.objects = append(b.objects, dataset.Object{
		Loc: geo.Point{X: x, Y: y},
		Doc: vocab.DocFromTerms(terms),
	})
	return nil
}

// Len returns the number of objects added so far.
func (b *ShardBuilder) Len() int { return len(b.objects) }

// Build constructs the shard index. The shard's dataset carries the
// frozen global statistics and space instead of recomputed local ones
// (the context Compact and Load carry too), and the relevance model is
// made frozen — so every score, normalizer, and upper bound matches
// the global index bit for bit. Objects get local dense ids in ascending
// global-id order: local tie-breaks (always ascending object id) then
// order exactly like global ones, which is what makes coordinator-side
// top-k merges exact.
func (b *ShardBuilder) Build(opts Options) (*ShardIndex, error) {
	if len(b.objects) == 0 {
		return nil, fmt.Errorf("maxbrstknn: no objects added to shard")
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	order := make([]int, len(b.objects))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return b.gids[order[i]] < b.gids[order[j]] })
	objects := make([]dataset.Object, len(order))
	gids := make([]int32, len(order))
	for li, oi := range order {
		if li > 0 && b.gids[oi] == gids[li-1] {
			return nil, fmt.Errorf("maxbrstknn: duplicate global object id %d in shard", b.gids[oi])
		}
		objects[li] = b.objects[oi]
		objects[li].ID = int32(li)
		gids[li] = b.gids[oi]
	}
	stats := dataset.CorpusStats{
		CollectionFreq: append([]int64(nil), b.frozen.CollectionFreq...),
		DocFreq:        append([]int32(nil), b.frozen.DocFreq...),
		TotalTerms:     b.frozen.TotalTerms,
		NumDocs:        b.frozen.NumDocs,
	}
	space := geo.Rect{
		Min: geo.Point{X: b.frozen.Space[0], Y: b.frozen.Space[1]},
		Max: geo.Point{X: b.frozen.Space[2], Y: b.frozen.Space[3]},
	}
	model, err := textrel.NewModelFrozen(opts.Measure.kind(), stats, opts.lambda(), b.frozen.MaxW)
	if err != nil {
		return nil, err
	}
	ix := opts.assemble(objects, b.vocab.View(), stats, space, model)
	ix.gids = gids
	return &ShardIndex{Index: ix}, nil
}

// ShardIndex is the Index a ShardBuilder builds: it holds one shard's
// objects, answers with global object ids, and is immutable (see
// Index.AddObject).
type ShardIndex struct{ *Index }

// errShardImmutable is what the mutating methods of an index with a
// global id map return.
var errShardImmutable = errors.New("maxbrstknn: shard indexes are immutable (rebuild the shard instead)")

// globalID maps a local object id to the id results report: itself on a
// whole index, its global id on a shard index.
func (ix *Index) globalID(local int32) int {
	if ix.gids == nil {
		return int(local)
	}
	return int(ix.gids[local])
}

// ShardPhase1 is one index's joint top-k answer: each cohort user's
// top-k over the index's objects (global ids, score descending with
// ascending-id tie-breaks) plus the work counters. Visited is tree nodes
// expanded by the group traversals; Refined is candidates actually scored
// during per-user refinement — the counter where bound forwarding shows
// up, since a seeded threshold truncates each descending-UB candidate
// scan earlier.
type ShardPhase1 struct {
	PerUser [][]RankedObject
	Visited int
	Refined int
}

// Phase1 computes every cohort user's top-k over the session's pinned
// snapshot with one joint traversal (Section 5) on up to opts.Workers
// goroutines — the paper's joint top-k, which NewParallelSession reduces
// to thresholds. seeds[u] (optional — nil means no bounds known) is a
// lower bound on user u's global k-th best score, established by a
// coordinator from shards that already answered; the traversals and
// refinements prune below it, losslessly for the merged global top-k.
// Merging all shards' lists per user with MergeTopK reproduces the
// single-index lists, and ThresholdFromMerged its thresholds, exactly.
func (s *Session) Phase1(seeds []float64, opts ParallelOptions) (ShardPhase1, error) {
	if err := s.checkOpen("Phase1"); err != nil {
		return ShardPhase1{}, err
	}
	if seeds != nil && len(seeds) != len(s.users) {
		return ShardPhase1{}, fmt.Errorf("maxbrstknn: %d seeds for %d users", len(seeds), len(s.users))
	}
	groups := opts.Groups
	if groups <= 0 {
		groups = opts.Workers
	}
	res, err := topk.JointTopK(s.snap.tree, s.engine.Scorer, s.users, s.k, opts.Workers, groups, seeds)
	if err != nil {
		return ShardPhase1{}, err
	}
	out := ShardPhase1{PerUser: make([][]RankedObject, len(res.PerUser)), Visited: res.Visited, Refined: res.Refined}
	for i, p := range res.PerUser {
		rs := make([]RankedObject, len(p.Results))
		for j, r := range p.Results {
			rs[j] = RankedObject{ObjectID: s.ix.globalID(r.ObjID), Score: r.Score}
		}
		out.PerUser[i] = rs
	}
	return out, nil
}

// MergeTopK folds per-shard ranked lists (as Phase1 and a shard index's
// TopK return them) into the global top-k: sort by score descending with
// ascending global-id tie-breaks, keep k. Every shard list is its shard's
// exact local top-k under that same order (a shard's local ids ascend
// with its global ids), so the merge equals the single-index list. One
// list is already a whole index's answer and comes back as it is,
// truncated to k. A non-positive k keeps nothing and returns nil.
func MergeTopK(k int, lists ...[]RankedObject) []RankedObject {
	if k <= 0 {
		return nil
	}
	if len(lists) == 1 {
		return lists[0][:min(k, len(lists[0]))]
	}
	var all []RankedObject
	for _, l := range lists {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].ObjectID < all[j].ObjectID
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// ThresholdFromMerged returns RSk(u) — the prepared phase-2 threshold —
// from a user's merged global top-k list: the k-th best score when the
// list is full, and the same "nothing qualifies yet" sentinel the
// single-index refinement heap reports otherwise — also for a
// non-positive k, which has no k-th score.
func ThresholdFromMerged(merged []RankedObject, k int) float64 {
	if k > 0 && len(merged) >= k {
		return merged[k-1].Score
	}
	return -math.MaxFloat64
}

// ShardCandidate is one evaluated candidate location Scatter returns:
// the answer in facade terms plus |LU_ℓ|, the qualifying-user count that
// orders the scan a coordinator replays.
type ShardCandidate struct {
	Result Result
	LU     int
}

// ScatterStats re-exports the phase-2 work counters of a Scatter call.
type ScatterStats = core.ScanStats

// Scatter evaluates the assigned candidate locations of one request under
// per-user thresholds rsk (cohort-indexed, from ThresholdFromMerged) and
// returns every evaluated candidate with a positive count, in scan order.
// l = 0 runs Run's single-best body; l > 0 runs RunTopL's top-l body,
// skipping a location once l evaluated ones beat its |LU_ℓ| strictly —
// sound across shards, because a location beating |LU_ℓ| has a larger
// |LU| and precedes it in the replayed order. floor is the bound
// forwarded from shards that already answered — the best count achieved
// so far; single-best scans skip candidates that provably cannot beat it.
//
// Replaying the single-index scan over the union of all shards'
// candidates reproduces Run / RunTopL byte for byte; phase 2 reads only
// model state and the thresholds — never the shard's object tree — so
// location→shard assignment is pure load balancing.
//
// UserIndexed is answered only by an index holding every object (no
// global id map): its Section 7 pruning derives thresholds from the
// index's own objects, ignores rsk, assigned and floor, and returns its
// one answer, pruning statistics included, as the only candidate.
func (s *Session) Scatter(req Request, rsk []float64, assigned []int, floor, l int) ([]ShardCandidate, ScatterStats, error) {
	var stats ScatterStats
	if req.Strategy == UserIndexed && l == 0 {
		if s.ix.gids != nil {
			return nil, stats, fmt.Errorf("maxbrstknn: the %s strategy cannot be scattered", req.Strategy)
		}
		q, err := s.open("Scatter", req)
		if err != nil {
			return nil, stats, err
		}
		sel, ui, err := s.runUserIndexed(q)
		if err != nil {
			return nil, stats, err
		}
		return []ShardCandidate{{Result: s.buildResult(req, sel, ui), LU: sel.Count()}}, stats, nil
	}
	spec, err := scanSpec("top-l", req, l > 0)
	if err != nil {
		return nil, stats, err
	}
	q, err := s.open("Scatter", req)
	if err != nil {
		return nil, stats, err
	}
	th, err := s.engine.NewThresholds(s.k, rsk)
	if err != nil {
		return nil, stats, err
	}
	if assigned == nil {
		assigned = []int{} // nil would scan every location; a shard scans only its own
	}
	spec.Assigned, spec.Floor = assigned, floor
	if l > 0 {
		spec.Mode, spec.L = core.ScanTopL, l
	}
	cands, stats, err := s.engine.Scan(q, th, spec)
	if err != nil {
		return nil, stats, err
	}
	out := make([]ShardCandidate, len(cands))
	for i, c := range cands {
		out[i] = ShardCandidate{Result: s.buildResult(req, c.Sel, core.UserIndexStats{}), LU: c.LU}
	}
	return out, stats, nil
}
