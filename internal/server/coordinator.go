package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	maxbrstknn "repro"
	"repro/internal/container"
)

// CoordinatorConfig tunes a scatter-gather coordinator. Only Shards is
// required; every other field has a production-sane default.
type CoordinatorConfig struct {
	// Addr is the listen address for ListenAndServe (default ":8080").
	Addr string
	// Shards lists the shard servers in shard-id order ("host:port" or
	// full "http://host:port" base URLs). The order must match the shard
	// plan: entry i must serve -shard i/N.
	Shards []string
	// ShardTimeout bounds one call to one shard (default 10s). A retried
	// call gets a fresh timeout.
	ShardTimeout time.Duration
	// RequestTimeout bounds one client request end to end (default 30s).
	RequestTimeout time.Duration
	// MaxBodyBytes bounds one request body (default 8 MiB).
	MaxBodyBytes int64
	// ThresholdCapacity is the LRU capacity, in user cohorts, of merged
	// phase-1 threshold vectors (default 64). Negative disables eviction.
	ThresholdCapacity int
	// DisableForwarding turns bound forwarding off: every shard call runs
	// unseeded and unfloored. Results are identical either way (the bounds
	// are lossless); the flag exists to measure the work forwarding saves.
	DisableForwarding bool
	// Client overrides the HTTP client used for shard calls (nil means a
	// dedicated default client). Timeouts come from ShardTimeout contexts,
	// so the client itself needs none.
	Client *http.Client
}

func (c CoordinatorConfig) addr() string {
	if c.Addr == "" {
		return ":8080"
	}
	return c.Addr
}

func (c CoordinatorConfig) shardTimeout() time.Duration {
	if c.ShardTimeout <= 0 {
		return 10 * time.Second
	}
	return c.ShardTimeout
}

func (c CoordinatorConfig) requestTimeout() time.Duration {
	if c.RequestTimeout <= 0 {
		return 30 * time.Second
	}
	return c.RequestTimeout
}

func (c CoordinatorConfig) maxBodyBytes() int64 {
	if c.MaxBodyBytes <= 0 {
		return 8 << 20
	}
	return c.MaxBodyBytes
}

func (c CoordinatorConfig) thresholdCapacity() int {
	if c.ThresholdCapacity == 0 {
		return 64
	}
	if c.ThresholdCapacity < 0 {
		return 0 // unbounded
	}
	return c.ThresholdCapacity
}

// shardMetrics accumulates one shard's call ledger.
type shardMetrics struct {
	calls     atomic.Int64
	latencyNs atomic.Int64
}

// Coordinator serves the public query API over a fleet of shard servers:
// it scatters phase 1 (joint top-k) and phase 2 (candidate selection)
// across the shards and gathers the answers with the replay merges that
// make every response byte-identical to a single-index server over the
// same data.
//
// Both phases run in two waves to forward bounds: a primary shard answers
// first, and the bound its answer establishes — the k-th best score per
// user in phase 1, the best achieved count in phase 2 — ships with the
// remaining shards' requests so their traversals prune deeper. The bounds
// are lossless, so forwarding changes work, never answers.
type Coordinator struct {
	cfg    CoordinatorConfig
	shards []string // normalized base URLs, shard-id order
	client *http.Client

	// thresholds caches the merged global RSk vector per user cohort —
	// phase 1 is the expensive half of a query, and cohorts repeat.
	thresholds *lruCache[[]float64]

	// counts[s] is shard s's object count, probed once from /healthz to
	// pick the phase-1 primary (the biggest shard answers first: its
	// bound is the strongest available single-shard bound).
	countsMu sync.Mutex
	counts   []int

	served        atomic.Int64
	retries       atomic.Int64
	shardErrors   atomic.Int64
	wave1Visited  atomic.Int64
	wave2Visited  atomic.Int64
	wave1Refined  atomic.Int64
	wave2Refined  atomic.Int64
	scatAssigned  atomic.Int64
	scatEvaluated atomic.Int64
	scatSkipped   atomic.Int64
	perShard      []shardMetrics

	start   time.Time
	httpSrv *http.Server
}

// NewCoordinator builds a coordinator over the given shard fleet.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("server: coordinator needs at least one shard address")
	}
	shards := make([]string, len(cfg.Shards))
	for i, a := range cfg.Shards {
		a = strings.TrimRight(strings.TrimSpace(a), "/")
		if a == "" {
			return nil, fmt.Errorf("server: empty shard address at position %d", i)
		}
		if !strings.Contains(a, "://") {
			a = "http://" + a
		}
		shards[i] = a
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	c := &Coordinator{
		cfg:        cfg,
		shards:     shards,
		client:     client,
		thresholds: newLRUCache[[]float64](cfg.thresholdCapacity()),
		perShard:   make([]shardMetrics, len(shards)),
		start:      time.Now(),
	}
	c.httpSrv = &http.Server{Addr: cfg.addr(), Handler: c.Handler()}
	return c, nil
}

// Handler returns the coordinator's route table: the public query API
// (same endpoints, same response bytes as a single-index Server), plus
// aggregated /stats and a fleet /healthz. Mutations answer 501 — shard
// indexes are immutable; re-split and rebuild to change the data.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /maxbrstknn", c.handleQuery)
	mux.HandleFunc("POST /topl", c.handleTopL)
	mux.HandleFunc("POST /multiple", c.handleMultiple)
	mux.HandleFunc("POST /topk", c.handleTopK)
	mux.HandleFunc("GET /stats", c.handleStats)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	for _, route := range []string{"POST /add", "POST /delete", "POST /update"} {
		mux.HandleFunc(route, c.handleNotCoordinated)
	}
	return timeoutHandler(mux, c.cfg.requestTimeout())
}

// ListenAndServe serves until Shutdown or a listener error.
func (c *Coordinator) ListenAndServe() error { return c.httpSrv.ListenAndServe() }

// Shutdown gracefully stops the coordinator.
func (c *Coordinator) Shutdown(ctx context.Context) error { return c.httpSrv.Shutdown(ctx) }

func (c *Coordinator) handleNotCoordinated(w http.ResponseWriter, r *http.Request) {
	writeError(w, http.StatusNotImplemented,
		fmt.Errorf("%s is not served by the coordinator (shard indexes are immutable; re-split and rebuild)", r.URL.Path))
}

// ---- shard RPC ----

// transportError marks a failure to reach a shard or read its answer —
// the only class of error a retry may fix. An HTTP status, however bad,
// is a delivered answer and is never retried: the shard already did the
// work once, and query handlers are not idempotent in cost.
type transportError struct{ err error }

func (e *transportError) Error() string { return e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

// statusError is a non-200 answer from a shard.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.msg) }

// shardCallError wraps any shard-call failure with the failing shard's
// identity, so a 502 names the process an operator must look at.
type shardCallError struct {
	shard int
	addr  string
	err   error
}

func (e *shardCallError) Error() string {
	return fmt.Sprintf("shard %d (%s): %v", e.shard, e.addr, e.err)
}
func (e *shardCallError) Unwrap() error { return e.err }

// coordErrorStatus maps a scatter failure to a client status: a shard's
// 400 is the client's own request validated remotely and passes through;
// everything else — unreachable shard, shard-side 5xx, bad payload — is
// the fleet's fault, 502.
func coordErrorStatus(err error) int {
	var se *statusError
	if errors.As(err, &se) && se.code == http.StatusBadRequest {
		return http.StatusBadRequest
	}
	return http.StatusBadGateway
}

// call performs one shard RPC: JSON in, JSON out, under a fresh
// ShardTimeout. Transport failures retry exactly once (fresh timeout)
// while the parent request is still alive; delivered HTTP errors never
// retry. Every failure is wrapped to name the shard.
func (c *Coordinator) call(ctx context.Context, shard int, method, path string, body, into any) error {
	var payload []byte
	if body != nil {
		var err error
		payload, err = json.Marshal(body)
		if err != nil {
			return &shardCallError{shard: shard, addr: c.shards[shard], err: err}
		}
	}
	attempt := func() error {
		sctx, cancel := context.WithTimeout(ctx, c.cfg.shardTimeout())
		defer cancel()
		var rd io.Reader
		if payload != nil {
			rd = bytes.NewReader(payload)
		}
		req, err := http.NewRequestWithContext(sctx, method, c.shards[shard]+path, rd)
		if err != nil {
			return err
		}
		if payload != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		began := time.Now()
		resp, err := c.client.Do(req)
		c.perShard[shard].calls.Add(1)
		c.perShard[shard].latencyNs.Add(int64(time.Since(began)))
		if err != nil {
			return &transportError{err}
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return &transportError{err}
		}
		if resp.StatusCode != http.StatusOK {
			msg := strings.TrimSpace(string(data))
			var wire struct {
				Error string `json:"error"`
			}
			if json.Unmarshal(data, &wire) == nil && wire.Error != "" {
				msg = wire.Error
			}
			return &statusError{code: resp.StatusCode, msg: msg}
		}
		if into == nil {
			return nil
		}
		return json.Unmarshal(data, into)
	}
	err := attempt()
	var te *transportError
	if errors.As(err, &te) && ctx.Err() == nil {
		c.retries.Add(1)
		err = attempt()
	}
	if err != nil {
		c.shardErrors.Add(1)
		return &shardCallError{shard: shard, addr: c.shards[shard], err: err}
	}
	return nil
}

// objectCounts probes every shard's /healthz once and caches the object
// counts; they pick the phase-1 primary. Concurrent first requests
// serialize on the mutex — only the very first one pays the probe.
func (c *Coordinator) objectCounts(ctx context.Context) ([]int, error) {
	c.countsMu.Lock()
	defer c.countsMu.Unlock()
	if c.counts != nil {
		return c.counts, nil
	}
	counts := make([]int, len(c.shards))
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for s := range c.shards {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			var h struct {
				Objects int `json:"objects"`
			}
			errs[s] = c.call(ctx, s, http.MethodGet, "/healthz", nil, &h)
			counts[s] = h.Objects
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	c.counts = counts
	return counts, nil
}

// ---- phase 1: thresholds ----

// cohortThresholds returns the merged global RSk vector for a cohort,
// computing it with the two-wave scatter on first sight and caching it.
// Shard indexes are immutable, so the cache never goes stale; epoch 0 in
// the key keeps the one key definition shared with the mutable servers.
func (c *Coordinator) cohortThresholds(ctx context.Context, users []UserSpec, k int, par ParallelSpec) ([]float64, error) {
	specs := make([]maxbrstknn.UserSpec, len(users))
	for i, u := range users {
		specs[i] = maxbrstknn.UserSpec{X: u.X, Y: u.Y, Keywords: u.Keywords}
	}
	key := sessionKey(0, specs, k)
	return c.thresholds.get(key, func() ([]float64, error) {
		return c.gatherThresholds(ctx, users, k, par)
	})
}

// gatherThresholds runs the two-wave phase-1 scatter. Wave 1: the
// largest shard answers unseeded. Wave 2: every other shard runs with
// each user's wave-1 k-th best score as a traversal seed (unless
// forwarding is disabled) — a valid lower bound on the global k-th best,
// so the seeded pruning is lossless. The merged per-user top-k (score
// descending, global id ascending, keep k) reproduces the single-index
// lists exactly; rsk[u] is its k-th score, or the refinement heap's
// "nothing qualifies" sentinel when fewer than k objects exist.
func (c *Coordinator) gatherThresholds(ctx context.Context, users []UserSpec, k int, par ParallelSpec) ([]float64, error) {
	counts, err := c.objectCounts(ctx)
	if err != nil {
		return nil, err
	}
	primary := 0
	for s := 1; s < len(counts); s++ {
		if counts[s] > counts[primary] {
			primary = s
		}
	}

	responses := make([]Phase1Response, len(c.shards))
	if err := c.call(ctx, primary, http.MethodPost, "/shard/phase1",
		Phase1Request{Users: users, K: k, Parallel: par}, &responses[primary]); err != nil {
		return nil, err
	}
	if len(responses[primary].PerUser) != len(users) {
		return nil, &shardCallError{shard: primary, addr: c.shards[primary],
			err: fmt.Errorf("returned %d user lists for a %d-user cohort", len(responses[primary].PerUser), len(users))}
	}
	c.wave1Visited.Add(int64(responses[primary].Visited))
	c.wave1Refined.Add(int64(responses[primary].Refined))

	var seeds []float64
	if !c.cfg.DisableForwarding {
		seeds = make([]float64, len(users))
		for u, list := range responses[primary].PerUser {
			if len(list) >= k && list[k-1].Score > 0 {
				seeds[u] = list[k-1].Score
			}
		}
	}

	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for s := range c.shards {
		if s == primary {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = c.call(ctx, s, http.MethodPost, "/shard/phase1",
				Phase1Request{Users: users, K: k, Seeds: seeds, Parallel: par}, &responses[s])
		}(s)
	}
	wg.Wait()
	for s := range c.shards {
		if s == primary {
			continue
		}
		if errs[s] != nil {
			return nil, errs[s]
		}
		if len(responses[s].PerUser) != len(users) {
			return nil, &shardCallError{shard: s, addr: c.shards[s],
				err: fmt.Errorf("returned %d user lists for a %d-user cohort", len(responses[s].PerUser), len(users))}
		}
		c.wave2Visited.Add(int64(responses[s].Visited))
		c.wave2Refined.Add(int64(responses[s].Refined))
	}

	rsk := make([]float64, len(users))
	for u := range users {
		var all []RankedPayload
		for s := range responses {
			all = append(all, responses[s].PerUser[u]...)
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].Score != all[j].Score {
				return all[i].Score > all[j].Score
			}
			return all[i].ObjectID < all[j].ObjectID
		})
		if len(all) >= k {
			rsk[u] = all[k-1].Score
		} else {
			rsk[u] = -math.MaxFloat64
		}
	}
	return rsk, nil
}

// ---- phase 2: scatter ----

// scatterSelect fans the candidate locations out round-robin, gathers
// every shard's evaluated candidates, and forwards the best count the
// first wave achieved as the second wave's floor (best-mode only — the
// top-l replay needs every positive candidate, and the floor skip is
// only sound for a single-best scan).
func (c *Coordinator) scatterSelect(ctx context.Context, wire QueryRequest, rsk []float64, list, forwardFloor bool) ([]ShardCandidatePayload, error) {
	parts := make([][]int, len(c.shards))
	for i := range wire.Locations {
		parts[i%len(c.shards)] = append(parts[i%len(c.shards)], i)
	}
	primary := 0
	for s := 1; s < len(parts); s++ {
		if len(parts[s]) > len(parts[primary]) {
			primary = s
		}
	}

	responses := make([]SelectResponse, len(c.shards))
	if err := c.call(ctx, primary, http.MethodPost, "/shard/select",
		SelectRequest{Query: wire, RSK: rsk, Assigned: parts[primary], List: list}, &responses[primary]); err != nil {
		return nil, err
	}
	c.addScatterStats(responses[primary].Stats)

	floor := 0
	if forwardFloor && !list && !c.cfg.DisableForwarding {
		for _, cand := range responses[primary].Candidates {
			if cand.Result.Count > floor {
				floor = cand.Result.Count
			}
		}
	}

	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for s := range c.shards {
		if s == primary {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = c.call(ctx, s, http.MethodPost, "/shard/select",
				SelectRequest{Query: wire, RSK: rsk, Assigned: parts[s], Floor: floor, List: list}, &responses[s])
		}(s)
	}
	wg.Wait()

	var all []ShardCandidatePayload
	for s := range c.shards {
		if s != primary {
			if errs[s] != nil {
				return nil, errs[s]
			}
			c.addScatterStats(responses[s].Stats)
		}
		all = append(all, responses[s].Candidates...)
	}
	return all, nil
}

func (c *Coordinator) addScatterStats(st ScatterStatsPayload) {
	c.scatAssigned.Add(int64(st.Assigned))
	c.scatEvaluated.Add(int64(st.Evaluated))
	c.scatSkipped.Add(int64(st.SkippedFloor))
}

// ---- replay merges ----

// replayBestPayload is Run's merge: scan the union of shard candidates
// in (|LU| descending, location ascending) order — the single index's
// evaluation order — and keep the first strictly greater count.
func replayBestPayload(cands []ShardCandidatePayload) ResultPayload {
	ordered := append([]ShardCandidatePayload(nil), cands...)
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].LU != ordered[j].LU {
			return ordered[i].LU > ordered[j].LU
		}
		return ordered[i].Result.LocationIndex < ordered[j].Result.LocationIndex
	})
	best := PayloadFromResult(maxbrstknn.Result{LocationIndex: -1})
	for _, cand := range ordered {
		if cand.Result.Count > best.Count {
			best = cand.Result
		}
	}
	return best
}

// replayTopLPayload is RunTopL's merge: replay the bounded-heap offers
// in scan order — tie eviction depends on the full offer sequence, which
// is why shards return every positive candidate — then present like the
// single index.
func replayTopLPayload(cands []ShardCandidatePayload, l int) []ResultPayload {
	ordered := append([]ShardCandidatePayload(nil), cands...)
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].LU != ordered[j].LU {
			return ordered[i].LU > ordered[j].LU
		}
		return ordered[i].Result.LocationIndex < ordered[j].Result.LocationIndex
	})
	h := container.NewTopK[ResultPayload](l)
	for _, cand := range ordered {
		h.Offer(cand.Result, float64(cand.Result.Count))
	}
	out := h.PopAscending()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].LocationIndex < out[j].LocationIndex
	})
	if out == nil {
		out = []ResultPayload{}
	}
	return out
}

// replayExhaustivePayload folds per-location bests in ascending location
// order with the flat Baseline scan's strict first-max.
func replayExhaustivePayload(cands []ShardCandidatePayload) ResultPayload {
	ordered := append([]ShardCandidatePayload(nil), cands...)
	sort.Slice(ordered, func(i, j int) bool {
		return ordered[i].Result.LocationIndex < ordered[j].Result.LocationIndex
	})
	best := PayloadFromResult(maxbrstknn.Result{LocationIndex: -1})
	for _, cand := range ordered {
		if cand.Result.Count > best.Count {
			best = cand.Result
		}
	}
	return best
}

// ---- handlers ----

func (c *Coordinator) decodeBody(w http.ResponseWriter, r *http.Request, into any) error {
	r.Body = http.MaxBytesReader(w, r.Body, c.cfg.maxBodyBytes())
	if err := json.NewDecoder(r.Body).Decode(into); err != nil {
		return fmt.Errorf("invalid JSON body: %w", err)
	}
	return nil
}

func (c *Coordinator) decodeQuery(w http.ResponseWriter, r *http.Request) (*QueryRequest, maxbrstknn.Strategy, bool) {
	var wire QueryRequest
	if err := c.decodeBody(w, r, &wire); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil, 0, false
	}
	strat, err := ParseStrategy(wire.Strategy)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil, 0, false
	}
	return &wire, strat, true
}

func (c *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	wire, strat, ok := c.decodeQuery(w, r)
	if !ok {
		return
	}
	if strat == maxbrstknn.UserIndexed {
		writeError(w, http.StatusBadRequest,
			errors.New("the user-indexed strategy cannot be scattered (query a single-index server)"))
		return
	}
	rsk, err := c.cohortThresholds(r.Context(), wire.Users, wire.K, wire.Parallel)
	if err != nil {
		writeError(w, coordErrorStatus(err), err)
		return
	}
	cands, err := c.scatterSelect(r.Context(), *wire, rsk, false, strat != maxbrstknn.Exhaustive)
	if err != nil {
		writeError(w, coordErrorStatus(err), err)
		return
	}
	var res ResultPayload
	if strat == maxbrstknn.Exhaustive {
		res = replayExhaustivePayload(cands)
	} else {
		res = replayBestPayload(cands)
	}
	c.served.Add(1)
	writeJSON(w, func() ([]byte, error) { return appendNewline(json.Marshal(res)) })
}

func (c *Coordinator) handleTopL(w http.ResponseWriter, r *http.Request) {
	wire, strat, ok := c.decodeQuery(w, r)
	if !ok {
		return
	}
	if strat != maxbrstknn.Exact && strat != maxbrstknn.Approx {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("this endpoint does not support the %s strategy (use exact or approx)", strat))
		return
	}
	l := wire.L
	if l <= 0 {
		l = 1
	}
	rsk, err := c.cohortThresholds(r.Context(), wire.Users, wire.K, wire.Parallel)
	if err != nil {
		writeError(w, coordErrorStatus(err), err)
		return
	}
	cands, err := c.scatterSelect(r.Context(), *wire, rsk, true, false)
	if err != nil {
		writeError(w, coordErrorStatus(err), err)
		return
	}
	results := replayTopLPayload(cands, l)
	c.served.Add(1)
	writeJSON(w, func() ([]byte, error) {
		return appendNewline(json.Marshal(struct {
			Results []ResultPayload `json:"results"`
		}{results}))
	})
}

// handleMultiple runs RunMultiple's greedy m rounds at the coordinator:
// each round is a best-mode scatter under a threshold vector whose
// already-covered users are poisoned so no location can count them
// again. The poison is math.MaxFloat64, not +Inf — JSON cannot carry
// infinities — and no achievable score reaches either, so the keep test
// behaves identically.
func (c *Coordinator) handleMultiple(w http.ResponseWriter, r *http.Request) {
	wire, strat, ok := c.decodeQuery(w, r)
	if !ok {
		return
	}
	if strat != maxbrstknn.Exact && strat != maxbrstknn.Approx {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("this endpoint does not support the %s strategy (use exact or approx)", strat))
		return
	}
	m := wire.M
	if m <= 0 {
		m = 1
	}
	rsk, err := c.cohortThresholds(r.Context(), wire.Users, wire.K, wire.Parallel)
	if err != nil {
		writeError(w, coordErrorStatus(err), err)
		return
	}
	poisoned := append([]float64(nil), rsk...)
	results := make([]ResultPayload, 0, m)
	for round := 0; round < m; round++ {
		cands, err := c.scatterSelect(r.Context(), *wire, poisoned, false, true)
		if err != nil {
			writeError(w, coordErrorStatus(err), err)
			return
		}
		best := replayBestPayload(cands)
		if best.Count == 0 {
			break
		}
		results = append(results, best)
		for _, uid := range best.UserIDs {
			if uid >= 0 && uid < len(poisoned) {
				poisoned[uid] = math.MaxFloat64
			}
		}
	}
	c.served.Add(1)
	writeJSON(w, func() ([]byte, error) {
		return appendNewline(json.Marshal(struct {
			Results []ResultPayload `json:"results"`
		}{results}))
	})
}

// handleTopK scatters one user's top-k to every shard and merges by
// (score descending, global id ascending). Exact whenever scores are
// distinct; equal-scored objects may order differently than a single
// index, whose heap breaks such ties by traversal order.
func (c *Coordinator) handleTopK(w http.ResponseWriter, r *http.Request) {
	var wire TopKRequest
	if err := c.decodeBody(w, r, &wire); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if wire.K < 1 {
		// What every shard would answer, said before the scatter.
		writeError(w, http.StatusBadRequest, errors.New("maxbrstknn: k must be positive"))
		return
	}
	type topKResponse struct {
		Results []RankedPayload `json:"results"`
	}
	responses := make([]topKResponse, len(c.shards))
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for s := range c.shards {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = c.call(r.Context(), s, http.MethodPost, "/topk", wire, &responses[s])
		}(s)
	}
	wg.Wait()
	total := 0
	for s := range c.shards {
		if errs[s] != nil {
			writeError(w, coordErrorStatus(errs[s]), errs[s])
			return
		}
		total += len(responses[s].Results)
	}
	all := make([]RankedPayload, 0, total)
	for s := range c.shards {
		all = append(all, responses[s].Results...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].ObjectID < all[j].ObjectID
	})
	if len(all) > wire.K {
		all = all[:wire.K]
	}
	c.served.Add(1)
	writeJSON(w, func() ([]byte, error) {
		return appendNewline(json.Marshal(topKResponse{Results: all}))
	})
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type probe struct {
		objects int
		err     error
	}
	probes := make([]probe, len(c.shards))
	var wg sync.WaitGroup
	for s := range c.shards {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			var h struct {
				Objects int `json:"objects"`
			}
			probes[s].err = c.call(r.Context(), s, http.MethodGet, "/healthz", nil, &h)
			probes[s].objects = h.Objects
		}(s)
	}
	wg.Wait()
	unreachable := []string{}
	total := 0
	for s := range probes {
		if probes[s].err != nil {
			unreachable = append(unreachable, probes[s].err.Error())
			continue
		}
		total += probes[s].objects
	}
	if len(unreachable) > 0 {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]any{
			"status":      "degraded",
			"unreachable": unreachable,
		})
		return
	}
	writeJSON(w, func() ([]byte, error) {
		return appendNewline(json.Marshal(map[string]any{
			"status":  "ok",
			"shards":  len(c.shards),
			"objects": total,
		}))
	})
}

// CoordinatorShardStats is one shard's entry in the aggregated /stats.
type CoordinatorShardStats struct {
	Addr         string  `json:"addr"`
	Calls        int64   `json:"calls"`
	AvgLatencyMs float64 `json:"avg_latency_ms"`
	// Error is set when the stats probe itself failed; Stats is then nil.
	Error string        `json:"error,omitempty"`
	Stats *StatsPayload `json:"stats,omitempty"`
}

// CoordinatorStatsPayload is the coordinator's /stats response: fleet-
// level scatter-gather counters — the wave split of phase-1 visits and
// the floor-skip counts are the observables that show what bound
// forwarding saves — plus each shard's own stats.
type CoordinatorStatsPayload struct {
	Shards        int   `json:"shards"`
	Forwarding    bool  `json:"forwarding"`
	ServedQueries int64 `json:"served_queries"`
	Phase1        struct {
		Wave1Visited int64 `json:"wave1_visited"`
		Wave2Visited int64 `json:"wave2_visited"`
		Wave1Refined int64 `json:"wave1_refined"`
		Wave2Refined int64 `json:"wave2_refined"`
	} `json:"phase1"`
	Scatter struct {
		Assigned     int64 `json:"assigned"`
		Evaluated    int64 `json:"evaluated"`
		SkippedFloor int64 `json:"skipped_floor"`
	} `json:"scatter"`
	Retries        int64 `json:"retries"`
	ShardErrors    int64 `json:"shard_errors"`
	ThresholdCache struct {
		Size    int     `json:"size"`
		Hits    int64   `json:"hits"`
		Misses  int64   `json:"misses"`
		HitRate float64 `json:"hit_rate"`
	} `json:"threshold_cache"`
	UptimeSeconds float64                 `json:"uptime_seconds"`
	PerShard      []CoordinatorShardStats `json:"per_shard"`
}

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	var p CoordinatorStatsPayload
	p.Shards = len(c.shards)
	p.Forwarding = !c.cfg.DisableForwarding
	p.ServedQueries = c.served.Load()
	p.Phase1.Wave1Visited = c.wave1Visited.Load()
	p.Phase1.Wave2Visited = c.wave2Visited.Load()
	p.Phase1.Wave1Refined = c.wave1Refined.Load()
	p.Phase1.Wave2Refined = c.wave2Refined.Load()
	p.Scatter.Assigned = c.scatAssigned.Load()
	p.Scatter.Evaluated = c.scatEvaluated.Load()
	p.Scatter.SkippedFloor = c.scatSkipped.Load()
	p.Retries = c.retries.Load()
	p.ShardErrors = c.shardErrors.Load()
	size, hits, misses := c.thresholds.stats()
	p.ThresholdCache.Size, p.ThresholdCache.Hits, p.ThresholdCache.Misses = size, hits, misses
	if total := hits + misses; total > 0 {
		p.ThresholdCache.HitRate = float64(hits) / float64(total)
	}
	p.UptimeSeconds = time.Since(c.start).Seconds()

	p.PerShard = make([]CoordinatorShardStats, len(c.shards))
	shardStats := make([]StatsPayload, len(c.shards))
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for s := range c.shards {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = c.call(r.Context(), s, http.MethodGet, "/stats", nil, &shardStats[s])
		}(s)
	}
	wg.Wait()
	for s := range c.shards {
		entry := CoordinatorShardStats{Addr: c.shards[s], Calls: c.perShard[s].calls.Load()}
		if entry.Calls > 0 {
			entry.AvgLatencyMs = float64(c.perShard[s].latencyNs.Load()) / float64(entry.Calls) / 1e6
		}
		if errs[s] != nil {
			entry.Error = errs[s].Error()
		} else {
			entry.Stats = &shardStats[s]
		}
		p.PerShard[s] = entry
	}
	writeJSON(w, func() ([]byte, error) { return appendNewline(json.Marshal(p)) })
}
