package maxbrstknn

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/irtree"
	"repro/internal/miurtree"
	"repro/internal/vocab"
)

// UserSpec describes one user of the bichromatic dataset.
type UserSpec struct {
	X, Y     float64
	Keywords []string
}

// Strategy selects the MaxBRSTkNN processing strategy.
type Strategy int

// Available strategies, in increasing sophistication.
const (
	// Exact runs Algorithm 3 with the exact keyword selection of
	// Algorithm 4 (the default).
	Exact Strategy = iota
	// Approx runs Algorithm 3 with the greedy maximum-coverage keyword
	// selection — typically orders of magnitude faster. Its answer wins
	// at most as many users as Exact's, and may win none where Exact
	// wins some.
	Approx
	// Exhaustive is the Section 4 baseline: every 〈location, combination〉
	// tuple is evaluated. Exponential in MaxKeywords; for testing only.
	Exhaustive
	// UserIndexed is the Section 7 method: users are indexed in a
	// MIUR-tree and top-k thresholds are computed only for users that
	// survive the hierarchical pruning. Uses exact keyword selection.
	UserIndexed
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case Exact:
		return "exact"
	case Approx:
		return "approx"
	case Exhaustive:
		return "exhaustive"
	case UserIndexed:
		return "user-indexed"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// ParallelOptions configures the parallel query engine. The zero value
// runs the sequential paper pipeline; any setting produces results
// byte-identical to it (ties are broken by object ID throughout), so
// parallelism is purely a performance knob.
type ParallelOptions struct {
	// Workers bounds the goroutines each query phase may use. Values
	// <= 1 run sequentially. A good default on a dedicated machine is
	// runtime.GOMAXPROCS(0).
	Workers int
	// Groups is the number of spatial super-user groups the joint top-k
	// phase partitions the users into. Tighter groups prune more of the
	// object index, so Groups can usefully exceed Workers even on a
	// single core. Values <= 0 default to Workers.
	Groups int
}

// Request is a MaxBRSTkNN query q(ox, L, W, ws, k) plus the user set.
type Request struct {
	// Users is the user set U.
	Users []UserSpec
	// Locations is the candidate location set L.
	Locations [][2]float64
	// Keywords is the candidate keyword set W.
	Keywords []string
	// MaxKeywords is ws, the maximum number of keywords to select.
	MaxKeywords int
	// K is the top-k depth.
	K int
	// ExistingKeywords is ox's existing text description (optional).
	ExistingKeywords []string
	// Strategy selects the processing method (default Exact).
	Strategy Strategy
	// Parallel configures the parallel engine. The zero value is fully
	// sequential. Phase 1 (MaxBRSTkNN) honours
	// Workers and Groups. In phase 2, Workers fans candidate locations out
	// for the Exact, Approx and Exhaustive strategies of Run, RunTopL and
	// RunMultiple; UserIndexed always selects sequentially.
	Parallel ParallelOptions
}

// Result is a MaxBRSTkNN answer.
type Result struct {
	// Location is the selected candidate location (index and coordinates).
	LocationIndex int
	Location      [2]float64
	// Keywords is the selected W' (≤ MaxKeywords strings).
	Keywords []string
	// UserIDs are the indexes into Request.Users of the BRSTkNN users.
	UserIDs []int
	// Stats carries the Section 7 pruning statistics when the
	// UserIndexed strategy ran; zero otherwise.
	Stats PruningStats
}

// Count returns the maximized |BRSTkNN|.
func (r Result) Count() int { return len(r.UserIDs) }

// PruningStats reports the user-index pruning of Section 7.
type PruningStats struct {
	TotalUsers    int
	ResolvedUsers int
	PrunedPercent float64
}

// MaxBRSTkNN answers the query. The heavy phase-1 work (each user's RSk
// threshold) runs inside; to amortize it across many candidate sets, use
// Session. req.Parallel applies to both phases.
func (ix *Index) MaxBRSTkNN(req Request) (Result, error) {
	s, err := ix.newSession(req.Users, req.K, req.Parallel)
	if err != nil {
		return Result{}, err
	}
	defer s.Close()
	return s.Run(req)
}

// Session holds one user set and one k on a pinned index snapshot, and
// the per-user thresholds that let several MaxBRSTkNN requests (different
// L, W, ws) share the joint top-k computation — the expensive phase the
// paper optimizes. NewSession prepares the thresholds;
// NewUnpreparedSession leaves them to Phase1 and Scatter, the two halves
// of a scatter-gathered query.
//
// # Concurrency
//
// A Session pins the index snapshot it was created on: the epoch's tree,
// vocabulary view and corpus statistics are captured once, and every
// later call traverses exactly that epoch — no locks against the index,
// no interference from concurrent AddObject / DeleteObject /
// UpdateObject calls, whose successor snapshots this session simply
// never observes. Create a fresh session when the answer should reflect
// newer mutations.
//
// A Session is immutable once built — its engine and prepared thresholds
// are never modified — so every method is safe for concurrent use by any
// number of goroutines.
//
// # Lifecycle
//
// The pinned epoch also pins storage: while the session lives, the
// writer will not reuse the pages its snapshot references. Call Close
// when done with a session so a long-lived mutating index can reclaim
// retired pages promptly; a forgotten session releases its pin when the
// garbage collector frees it (a cleanup is attached), so storage safety
// never depends on Close being called. Run, RunTopL, RunMultiple, Phase1
// and Scatter return ErrSessionClosed after Close; Thresholds keeps
// answering from the prepared in-memory state.
type Session struct {
	ix     *Index
	snap   *snapshot // the pinned epoch: every run reads this, never ix.snap
	users  []dataset.User
	k      int
	engine *core.Engine
	th     core.Thresholds // zero when unprepared: Scatter takes them per call

	// pin holds the epoch pin the session was created with; closed
	// rejects traversing calls after Close, and cleanup is the GC
	// fallback release for sessions that are never Closed.
	pin     *snapPin
	closed  atomic.Bool
	cleanup runtime.Cleanup

	// unknowns is the frozen string→id registry of the cohort's unknown
	// keywords; buildQuery layers each request's existing-keyword
	// unknowns on top of it without mutating it.
	unknowns map[string]vocab.TermID

	// The MIUR-tree of the UserIndexed strategy, built once on first use
	// and reused by every subsequent UserIndexed Run (the per-Run rebuild
	// defeated the session's amortization purpose).
	uiOnce sync.Once
	miur   *miurtree.Tree
}

// ErrSessionClosed is returned (wrapped) by session queries after Close.
var ErrSessionClosed = errors.New("maxbrstknn: session closed")

// snapPin is one releasable epoch pin. It deliberately does not reference
// the Session, so the session's GC cleanup (whose argument it is) can run.
type snapPin struct {
	tree *irtree.Tree
	once sync.Once
}

// release unpins, exactly once no matter how many paths race to it
// (explicit Close vs the GC cleanup).
func (p *snapPin) release() { p.once.Do(p.tree.Unpin) }

// Close releases the session's pin on its index snapshot, allowing the
// writer to reclaim pages that snapshot kept alive. Idempotent and safe
// to call concurrently with in-flight runs only after they return.
func (s *Session) Close() error {
	s.closed.Store(true)
	s.cleanup.Stop()
	s.pin.release()
	return nil
}

// checkOpen is the guard every traversing session query runs first.
func (s *Session) checkOpen(op string) error {
	if s.closed.Load() {
		return fmt.Errorf("%w: %s", ErrSessionClosed, op)
	}
	return nil
}

// NewSession precomputes the thresholds for the user set via the joint
// top-k processing of Section 5, sequentially.
func (ix *Index) NewSession(users []UserSpec, k int) (*Session, error) {
	return ix.newSession(users, k, ParallelOptions{})
}

// newSession is NewSession with the joint top-k phase run on the
// parallel engine: users are partitioned into opts.Groups spatial groups
// whose super-user traversals execute on up to opts.Workers goroutines.
// The prepared thresholds are identical to NewSession's.
func (ix *Index) newSession(users []UserSpec, k int, opts ParallelOptions) (*Session, error) {
	s, err := ix.NewUnpreparedSession(users, k)
	if err != nil {
		return nil, err
	}
	if s.th, err = s.engine.Prepare(k, opts.Workers, opts.Groups); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// NewUnpreparedSession pins the current snapshot for one user cohort
// without preparing thresholds: Phase1 computes the cohort's top-k lists
// (seeded by what other shards found), and Scatter runs phase 2 under
// thresholds merged from every shard's lists. The cohort must be the
// full, identically-ordered user list every shard of a deployment sees:
// user indexes in results and threshold vectors are cohort positions.
func (ix *Index) NewUnpreparedSession(users []UserSpec, k int) (*Session, error) {
	if len(users) == 0 {
		return nil, fmt.Errorf("maxbrstknn: at least one user required")
	}
	if k <= 0 {
		return nil, fmt.Errorf("maxbrstknn: k must be positive")
	}
	for _, u := range users {
		if err := checkPoint(u.X, u.Y); err != nil {
			return nil, err
		}
	}
	sn := ix.acquire()
	pin := &snapPin{tree: sn.tree}
	// One unknown-term registry spans all user documents, so distinct
	// unknown strings get distinct ids across the whole cohort and a
	// request's existing-keyword document (mapped through the same
	// frozen registry in buildQuery) matches a user's unknown keyword
	// exactly when the strings match.
	unknowns := &unknownTerms{}
	dsUsers := make([]dataset.User, len(users))
	for i, u := range users {
		dsUsers[i] = dataset.User{
			ID:  int32(i),
			Loc: geo.Point{X: u.X, Y: u.Y},
			Doc: sn.docFromKeywords(u.Keywords, unknowns),
		}
	}
	scorer := ix.scorerFor(sn, dataset.UsersMBR(dsUsers))
	engine := core.NewEngine(sn.tree, scorer, dsUsers)
	s := &Session{ix: ix, snap: sn, users: dsUsers, k: k, engine: engine, unknowns: unknowns.local, pin: pin}
	// GC fallback: a session abandoned without Close still releases its
	// pin once unreachable, so reclamation is delayed, never blocked.
	s.cleanup = runtime.AddCleanup(s, func(p *snapPin) { p.release() }, pin)
	return s, nil
}

// Thresholds returns the prepared k-th score threshold of each user —
// RSk(u), the bar a new object must clear to enter the user's top-k.
func (s *Session) Thresholds() []float64 {
	return append([]float64(nil), s.th.RSk...)
}

// Run answers one request against the session's prepared user set. The
// request's Users field is ignored (the session's users apply); K must
// match the session.
func (s *Session) Run(req Request) (Result, error) {
	q, err := s.open("Run", req)
	if err != nil {
		return Result{}, err
	}

	if req.Strategy == UserIndexed {
		sel, stats, err := s.runUserIndexed(q)
		if err != nil {
			return Result{}, err
		}
		return s.buildResult(req, sel, stats), nil
	}
	spec, err := scanSpec("Run", req, false)
	if err != nil {
		return Result{}, err
	}
	cands, _, err := s.engine.Scan(q, s.th, spec)
	if err != nil {
		return Result{}, err
	}
	return s.buildResult(req, core.Best(cands), core.UserIndexStats{}), nil
}

// scanSpec maps a request's strategy to the phase-2 scan op runs, or
// rejects it: the keyword method and scan mode, and the request's
// workers. An extension — a top-l list or a greedy multi-placement —
// accepts only Exact and Approx. UserIndexed is no scan (Run and Scatter
// route it to SelectUserIndexed first), and an out-of-range strategy is a
// caller bug: running Exact in its place would be the silent-downgrade
// class this layer must not have.
func scanSpec(op string, req Request, extension bool) (core.ScanSpec, error) {
	spec := core.ScanSpec{Workers: req.Parallel.Workers}
	switch req.Strategy {
	case Exact:
	case Approx:
		spec.Method = core.KeywordsApprox
	case Exhaustive, UserIndexed:
		if extension || req.Strategy == UserIndexed {
			return spec, fmt.Errorf("maxbrstknn: %s does not support the %s strategy (use Exact or Approx)", op, req.Strategy)
		}
		spec.Mode = core.ScanExhaustive
	default:
		return spec, fmt.Errorf("maxbrstknn: unknown strategy %d", int(req.Strategy))
	}
	return spec, nil
}

// runUserIndexed answers q with the Section 7 method, building the
// MIUR-tree on first use and reusing it for every later UserIndexed Run on
// this session. SelectUserIndexed computes its thresholds per run, and
// MIUR-tree reads are safe for concurrent callers, so runs need no lock.
func (s *Session) runUserIndexed(q core.Query) (core.Selection, core.UserIndexStats, error) {
	s.uiOnce.Do(func() {
		s.miur = miurtree.Build(s.users, s.engine.Scorer, s.ix.opts.fanout())
	})
	return s.engine.SelectUserIndexed(q, core.KeywordsExact, s.miur)
}

// open runs the checks every session query starts with — the session is
// not closed, the request's k is the session's — and builds its query.
func (s *Session) open(op string, req Request) (core.Query, error) {
	if err := s.checkOpen(op); err != nil {
		return core.Query{}, err
	}
	if req.K != s.k {
		return core.Query{}, fmt.Errorf("maxbrstknn: request k=%d differs from session k=%d", req.K, s.k)
	}
	return s.buildQuery(req)
}

func (s *Session) buildQuery(req Request) (core.Query, error) {
	locs := make([]geo.Point, len(req.Locations))
	for i, l := range req.Locations {
		if err := checkPoint(l[0], l[1]); err != nil {
			return core.Query{}, err
		}
		locs[i] = geo.Point{X: l[0], Y: l[1]}
	}
	kws := make([]vocab.TermID, 0, len(req.Keywords))
	for _, kw := range req.Keywords {
		if id, ok := s.snap.vocab.Lookup(kw); ok {
			kws = append(kws, id)
		}
		// Candidate keywords outside the corpus vocabulary are dropped:
		// the paper draws W from the corpus, and the selection engine's
		// bound machinery and result mapping (Vocab.Term) assume
		// vocabulary ids. Note the corner this leaves documented rather
		// than supported: a user's *unknown* keyword (which does get a
		// reserved id, shared with ExistingKeywords when the strings
		// match) can never be credited through a candidate keyword.
	}
	ws := req.MaxKeywords
	if ws > len(kws) {
		ws = len(kws)
	}
	q := core.Query{
		OxDoc:     s.snap.docFromKeywords(req.ExistingKeywords, &unknownTerms{base: s.unknowns}),
		Locations: locs,
		Keywords:  kws,
		WS:        ws,
		K:         req.K,
	}
	return q, q.Validate()
}

func (s *Session) buildResult(req Request, sel core.Selection, stats core.UserIndexStats) Result {
	res := Result{LocationIndex: sel.LocIndex}
	if sel.LocIndex >= 0 {
		res.Location = req.Locations[sel.LocIndex]
	} else {
		res.LocationIndex = -1
	}
	// Empty lists stay nil: the wire encodes them as null.
	if len(sel.Keywords) > 0 {
		res.Keywords = make([]string, len(sel.Keywords))
		for i, t := range sel.Keywords {
			res.Keywords[i] = s.snap.vocab.Term(t)
		}
	}
	if len(sel.Users) > 0 {
		res.UserIDs = make([]int, len(sel.Users))
		for i, uid := range sel.Users {
			res.UserIDs[i] = int(uid)
		}
	}
	if stats.TotalUsers > 0 {
		res.Stats = PruningStats{
			TotalUsers:    stats.TotalUsers,
			ResolvedUsers: stats.ResolvedUsers,
			PrunedPercent: stats.PrunedPercent(),
		}
	}
	return res
}
