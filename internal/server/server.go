package server

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	maxbrstknn "repro"
	"repro/internal/storage"
)

// Config tunes the serving layer. The zero value is usable: every field
// has a production-sane default.
type Config struct {
	// Addr is the listen address for ListenAndServe (default ":8080").
	Addr string
	// MaxInFlight bounds the query requests executing at once; excess
	// requests queue until a slot frees or their context is done.
	// Default: 4 × GOMAXPROCS. Health and stats probes bypass the bound.
	MaxInFlight int
	// RequestTimeout bounds one request's *response* time (default 30s):
	// at the deadline the client receives 503 with a JSON error, but a
	// query already executing is not cancelable mid-traversal — it runs
	// to completion and holds its in-flight slot until then. Size
	// MaxInFlight and RequestTimeout together for the slowest strategy
	// you expose.
	RequestTimeout time.Duration
	// SessionCapacity is the LRU capacity, in user cohorts, of the cohort
	// cache (default 64): per cohort, the merged phase-1 thresholds and
	// the session each in-process shard runs phase 2 on. Zero selects the
	// default; negative disables the bound (never evict).
	SessionCapacity int
	// MaxBodyBytes bounds one request body (default 8 MiB); oversized
	// bodies fail decoding with 400 before any work happens.
	MaxBodyBytes int64
}

// CoordinatorConfig tunes a coordinator over shard servers: Config plus
// the fleet. Only Shards is required.
type CoordinatorConfig struct {
	Config
	// Shards lists the shard servers in shard-id order ("host:port" or
	// full "http://host:port" base URLs). The order must match the shard
	// plan: entry i must serve -shard i/N.
	Shards []string
	// ShardTimeout bounds one call to one shard (default 10s). A retried
	// call gets a fresh timeout.
	ShardTimeout time.Duration
	// Client overrides the HTTP client used for shard calls (nil means a
	// dedicated default client). Timeouts come from ShardTimeout contexts,
	// so the client itself needs none.
	Client *http.Client
}

// Server answers the public query API as a coordinator over shards. It
// scatters phase 1 (joint top-k) and phase 2 (candidate selection) across
// the shards and gathers the answers with the replay merges that make
// every response byte-identical to the single index's. With one shard —
// New's in-process index — phase 1 is one joint top-k, phase 2 one scan,
// and the merges pass their one input through.
//
// Both phases run in two waves to forward bounds: a primary shard answers
// first, and the bound its answer establishes — the k-th best score per
// user in phase 1, the best achieved count in phase 2 — ships with the
// remaining shards' requests so their traversals prune deeper. The bounds
// are lossless, so forwarding changes work, never answers. It beat a
// concurrent unseeded scatter when measured (README, "Sharded serving").
//
// All handlers are safe for concurrent use; the Index and Session
// guarantees (see their godoc) make every query path race-clean.
type Server struct {
	cfg    Config
	shards []shard
	// ix is the in-process index of New (which also mutates it) and of
	// NewShard; nil on a coordinator of HTTP shards.
	ix *maxbrstknn.Index
	// position is a NewShard server's place in its deployment, which
	// /healthz reports so an operator can check the wiring.
	position map[string]int
	handler  http.Handler
	httpSrv  *http.Server

	// cohorts is the one cohort cache of the query path (see cohort).
	cohorts *lruCache[*cohort]

	// counts[s] is shard s's object count, probed once to pick the
	// phase-1 primary (the biggest shard answers first: its bound is the
	// strongest available single-shard bound).
	countsMu sync.Mutex
	counts   []int

	sem           chan struct{}
	inFlight      atomic.Int64
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
	start         time.Time
}

// Coordinator is the Server NewCoordinator returns.
type Coordinator = Server

// newServer resolves cfg's defaults and builds a server without shards
// or routes.
func newServer(cfg Config, ix *maxbrstknn.Index) *Server {
	cfg.Addr = cmp.Or(cfg.Addr, ":8080")
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 4 * runtime.GOMAXPROCS(0)
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	return &Server{
		cfg: cfg,
		ix:  ix,
		// A negative capacity stays negative: the cache never evicts.
		cohorts: newLRUCache(cmp.Or(cfg.SessionCapacity, 64), (*cohort).close),
		sem:     make(chan struct{}, cfg.MaxInFlight),
		start:   time.Now(),
	}
}

// queryRoutes is the public query API.
func (s *Server) queryRoutes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("POST /maxbrstknn", s.limited(s.handleQuery))
	mux.Handle("POST /topl", s.limited(s.handleTopL))
	mux.Handle("POST /multiple", s.limited(s.handleMultiple))
	mux.Handle("POST /topk", s.limited(s.handleTopK))
	return mux
}

// refuse answers routes this kind of server cannot serve with 501.
func refuse(mux *http.ServeMux, why string, routes ...string) {
	for _, route := range routes {
		mux.HandleFunc(route, func(w http.ResponseWriter, r *http.Request) {
			writeError(w, http.StatusNotImplemented, fmt.Errorf("%s %s", r.URL.Path, why))
		})
	}
}

// serve completes a route table with /stats and /healthz and wires it.
func (s *Server) serve(mux *http.ServeMux) *Server {
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	timeoutBody, _ := json.Marshal(map[string]string{"error": "request timed out"})
	s.handler = http.TimeoutHandler(mux, s.cfg.RequestTimeout, string(timeoutBody))
	s.httpSrv = &http.Server{Addr: s.cfg.Addr, Handler: s.handler}
	return s
}

// New serves an index (in-memory or loaded) as a fleet of one in-process
// shard, plus the mutation endpoints.
func New(ix *maxbrstknn.Index, cfg Config) *Server {
	s := newServer(cfg, ix)
	s.shards = []shard{localShard{ix}}
	mux := s.queryRoutes()
	mux.Handle("POST /add", s.limited(s.handleAdd))
	mux.Handle("POST /delete", s.limited(s.handleDelete))
	mux.Handle("POST /update", s.limited(s.handleUpdate))
	return s.serve(mux)
}

// NewCoordinator builds a coordinator over a fleet of shard servers
// (NewShard). Mutations answer 501: shard indexes are immutable.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("server: coordinator needs at least one shard address")
	}
	client := cmp.Or(cfg.Client, &http.Client{})
	timeout := cfg.ShardTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	s := newServer(cfg.Config, nil)
	for i, a := range cfg.Shards {
		a = strings.TrimRight(strings.TrimSpace(a), "/")
		if a == "" {
			return nil, fmt.Errorf("server: empty shard address at position %d", i)
		}
		if !strings.Contains(a, "://") {
			a = "http://" + a
		}
		s.shards = append(s.shards, &httpShard{s: s, id: i, addr: a, client: client, timeout: timeout})
	}
	mux := s.queryRoutes()
	refuse(mux, "is not served by the coordinator (shard indexes are immutable; re-split and rebuild)",
		"POST /add", "POST /delete", "POST /update")
	return s.serve(mux), nil
}

// Handler returns the full route table — exported so tests and embedders
// can serve it from their own listener (httptest, TLS, unix socket).
func (s *Server) Handler() http.Handler { return s.handler }

// ListenAndServe serves until Shutdown (which returns
// http.ErrServerClosed here) or a listener error.
func (s *Server) ListenAndServe() error {
	return s.httpSrv.ListenAndServe()
}

// Shutdown gracefully stops the server: the listener closes immediately,
// in-flight requests get until ctx expires to complete.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.httpSrv.Shutdown(ctx)
}

// limited bounds in-flight query execution: a request waits for one of
// MaxInFlight slots, giving up with 503 when its context (which includes
// the request timeout and the client connection) expires first.
func (s *Server) limited(h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		case <-r.Context().Done():
			writeError(w, http.StatusServiceUnavailable,
				errors.New("request canceled while queued for an execution slot"))
			return
		}
		// The slot may have opened only after the client gave up; don't
		// burn a query nobody will read.
		if r.Context().Err() != nil {
			return
		}
		s.inFlight.Add(1)
		defer s.inFlight.Add(-1)
		defer s.served.Add(1)
		h(w, r)
	})
}

// query is one decoded public query: its wire form, which an HTTP shard
// is sent, and the library request it converts to.
type query struct {
	wire QueryRequest
	req  maxbrstknn.Request
}

// decodeBody decodes one JSON request body under the configured size
// bound — the shared entry point of every endpoint, so body limits and
// error shapes cannot drift between handlers.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, into any) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(into); err != nil {
		return fmt.Errorf("invalid JSON body: %w", err)
	}
	return nil
}

// begin decodes and validates a public query and looks up its cohort,
// answering the client itself on failure. Everything a request can be
// refused for is refused before any shard is called or cohort built:
// an invalid query, a negative l or m, the user-indexed strategy on a
// fleet of more than one shard, and (extension, for /topl and /multiple)
// any strategy but exact and approx. The handler releases the cohort
// when it is done.
func (s *Server) begin(w http.ResponseWriter, r *http.Request, extension bool) (*query, *cohort, func(), bool) {
	q := &query{}
	err := s.decodeBody(w, r, &q.wire)
	if err == nil {
		q.req, err = q.wire.ToRequest()
	}
	strat := q.req.Strategy
	switch {
	case err != nil:
	case q.wire.L < 0 || q.wire.M < 0:
		err = fmt.Errorf("l (%d) and m (%d) must not be negative", q.wire.L, q.wire.M)
	case extension && strat != maxbrstknn.Exact && strat != maxbrstknn.Approx:
		err = fmt.Errorf("this endpoint does not support the %s strategy (use exact or approx)", strat)
	case strat == maxbrstknn.UserIndexed && len(s.shards) > 1:
		err = errors.New("the user-indexed strategy cannot be scattered (query a single-index server)")
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil, nil, nil, false
	}
	co, release, err := s.cohort(r.Context(), q)
	if err != nil {
		writeError(w, errorStatus(err), err)
		return nil, nil, nil, false
	}
	return q, co, release, true
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q, co, release, ok := s.begin(w, r, false)
	if !ok {
		return
	}
	defer release()
	cands, err := s.scatter(r.Context(), q, co, co.rsk, 0)
	if err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	res := replayBest(cands)
	if q.req.Strategy == maxbrstknn.UserIndexed {
		res = cands[0].Result // the whole index's one answer, pruning statistics included
	}
	writeJSON(w, func() ([]byte, error) { return ResultJSON(res) })
}

func (s *Server) handleTopL(w http.ResponseWriter, r *http.Request) {
	q, co, release, ok := s.begin(w, r, true)
	if !ok {
		return
	}
	defer release()
	l := max(q.wire.L, 1)
	cands, err := s.scatter(r.Context(), q, co, co.rsk, l)
	if err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	writeJSON(w, func() ([]byte, error) { return ResultsJSON(replayTopL(cands, l)) })
}

// handleMultiple runs RunMultiple's greedy rounds, maxbrstknn.Cover, over
// the scatter: each round is a single-best scatter under the cohort's
// thresholds with the users earlier rounds won poisoned by Cover's one
// poison, math.MaxFloat64, which the shard wire carries as it is.
func (s *Server) handleMultiple(w http.ResponseWriter, r *http.Request) {
	q, co, release, ok := s.begin(w, r, true)
	if !ok {
		return
	}
	defer release()
	results, err := maxbrstknn.Cover(max(q.wire.M, 1), co.rsk, func(rsk []float64) (maxbrstknn.Result, error) {
		cands, err := s.scatter(r.Context(), q, co, rsk, 0)
		return replayBest(cands), err
	})
	if err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	writeJSON(w, func() ([]byte, error) { return ResultsJSON(results) })
}

// handleTopK asks every shard for the user's top-k and merges the lists
// with MergeTopK, which reproduces the single index's list (one shard's
// list as it is).
func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	var wire TopKRequest
	if err := s.decodeBody(w, r, &wire); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if wire.K < 1 {
		writeError(w, http.StatusBadRequest, errors.New("maxbrstknn: k must be positive"))
		return
	}
	lists := make([][]maxbrstknn.RankedObject, len(s.shards))
	if err := errors.Join(s.fanOut(-1, func(i int) (err error) {
		lists[i], err = s.shards[i].topK(r.Context(), wire)
		return err
	})...); err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	writeJSON(w, func() ([]byte, error) { return TopKJSON(maxbrstknn.MergeTopK(wire.K, lists...)) })
}

func (s *Server) handleAdd(w http.ResponseWriter, r *http.Request) {
	var wire AddRequest
	s.mutate(w, r, &wire, func() (int, error) { return s.ix.AddObject(wire.X, wire.Y, wire.Keywords...) })
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	var wire DeleteRequest
	s.mutate(w, r, &wire, func() (int, error) { return wire.ID, s.ix.DeleteObject(wire.ID) })
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	var wire UpdateRequest
	s.mutate(w, r, &wire, func() (int, error) {
		return s.ix.UpdateObject(wire.ID, wire.X, wire.Y, wire.Keywords...)
	})
}

// mutate decodes a mutation into wire, applies it, and reports the
// object id it touched (for /add and /update, the id the caller queries
// by afterwards) and the state of the index after it. Epoch and live
// count come from one snapshot load, so they are mutually consistent —
// though with other writers running they may describe a later epoch than
// this mutation's. Cohorts of the epochs before it leave the cache: no
// request can ask for them again, and their sessions' pins would keep
// the writer from reclaiming what every later mutation retires.
func (s *Server) mutate(w http.ResponseWriter, r *http.Request, wire any, apply func() (int, error)) {
	if err := s.decodeBody(w, r, wire); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	id, err := apply()
	if err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	s.cohorts.dropBefore(s.epoch())
	st := s.ix.IngestStats()
	writeJSON(w, func() ([]byte, error) {
		return appendNewline(json.Marshal(MutationResponse{ID: id, Epoch: st.Epoch, LiveObjects: st.LiveObjects}))
	})
}

// IndexStatsPayload is the index block of /stats: storage, cache and
// ingest counters, summed over the server's shards.
type IndexStatsPayload struct {
	Objects         int   `json:"objects"`
	SimulatedIO     int64 `json:"simulated_io"`
	PhysicalRecords int64 `json:"physical_records"`
	PhysicalPages   int64 `json:"physical_pages"`
	// BufferHits and BufferMisses always read 0: they counted the record
	// buffer pool loaded indexes no longer have.
	BufferHits   int64 `json:"buffer_hits"`
	BufferMisses int64 `json:"buffer_misses"`
	// DecodedCache reports the decoded-object cache: decoded tree nodes
	// and posting directories shared across requests.
	DecodedCache struct {
		Hits      int64   `json:"hits"`
		Misses    int64   `json:"misses"`
		Evictions int64   `json:"evictions"`
		Entries   int     `json:"entries"`
		Bytes     int64   `json:"bytes"`
		CapBytes  int64   `json:"cap_bytes"`
		HitRate   float64 `json:"hit_rate"`
	} `json:"decoded_cache"`
	// Ingest reports the copy-on-write ingestion machinery: the current
	// epoch (one increment per published mutation), live vs allocated
	// object ids, and the store records superseded by mutations and not
	// yet reclaimed — a gauge that falls back to zero once no session pins
	// an older snapshot, on a built or a loaded index alike.
	Ingest struct {
		Epoch          uint64 `json:"epoch"`
		LiveObjects    int    `json:"live_objects"`
		TotalObjects   int    `json:"total_objects"`
		RetiredRecords int64  `json:"retired_records"`
		RetiredPages   int64  `json:"retired_pages"`
	} `json:"ingest"`
}

// indexStats reads one index's counters.
func indexStats(ix *maxbrstknn.Index) IndexStatsPayload {
	var p IndexStatsPayload
	p.Objects = ix.NumObjects()
	p.SimulatedIO = ix.SimulatedIO()
	p.PhysicalRecords, p.PhysicalPages = ix.ReadStats()
	cs := ix.CacheStats()
	d := &p.DecodedCache
	d.Hits, d.Misses, d.Evictions = cs.DecodedHits, cs.DecodedMisses, cs.DecodedEvictions
	d.Entries, d.Bytes, d.CapBytes = cs.DecodedEntries, cs.DecodedBytes, cs.DecodedCapBytes
	d.HitRate = hitRate(d.Hits, d.Misses)
	ing := ix.IngestStats()
	p.Ingest.Epoch = ing.Epoch
	p.Ingest.LiveObjects, p.Ingest.TotalObjects = ing.LiveObjects, ing.TotalObjects
	p.Ingest.RetiredRecords, p.Ingest.RetiredPages = ing.RetiredRecords, ing.RetiredPages
	return p
}

// add sums another shard's counters into p.
func (p *IndexStatsPayload) add(o IndexStatsPayload) {
	p.Objects += o.Objects
	p.SimulatedIO += o.SimulatedIO
	p.PhysicalRecords += o.PhysicalRecords
	p.PhysicalPages += o.PhysicalPages
	d := &p.DecodedCache
	d.Hits += o.DecodedCache.Hits
	d.Misses += o.DecodedCache.Misses
	d.Evictions += o.DecodedCache.Evictions
	d.Entries += o.DecodedCache.Entries
	d.Bytes += o.DecodedCache.Bytes
	d.CapBytes += o.DecodedCache.CapBytes
	d.HitRate = hitRate(d.Hits, d.Misses)
	g := &p.Ingest
	g.Epoch += o.Ingest.Epoch
	g.LiveObjects += o.Ingest.LiveObjects
	g.TotalObjects += o.Ingest.TotalObjects
	g.RetiredRecords += o.Ingest.RetiredRecords
	g.RetiredPages += o.Ingest.RetiredPages
}

// CachePayload reports one LRU cache's size and lookups.
type CachePayload struct {
	Size    int     `json:"size"`
	Hits    int64   `json:"hits"`
	Misses  int64   `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

// CoordinatorShardStats is one shard's entry in /stats: its call ledger
// and its own stats.
type CoordinatorShardStats struct {
	Addr         string  `json:"addr"`
	Calls        int64   `json:"calls"`
	AvgLatencyMs float64 `json:"avg_latency_ms"`
	// Error is set when the stats probe itself failed; Stats is then nil.
	Error string        `json:"error,omitempty"`
	Stats *StatsPayload `json:"stats,omitempty"`
}

// StatsPayload is the /stats response body of every server: the index
// counters summed over its shards, the cohort cache, the scatter-gather
// counters — the wave split of phase-1 work and the floor-skip counts
// are the observables that show what bound forwarding saves — and each
// shard's own entry.
type StatsPayload struct {
	IndexStatsPayload
	// SessionCache reports the cohort cache; ThresholdCache repeats it
	// under the name coordinators have reported it by.
	SessionCache   CachePayload `json:"session_cache"`
	ThresholdCache CachePayload `json:"threshold_cache"`
	InFlight       int64        `json:"in_flight"`
	MaxInFlight    int          `json:"max_in_flight"`
	ServedQueries  int64        `json:"served_queries"`
	UptimeSeconds  float64      `json:"uptime_seconds"`
	Shards         int          `json:"shards"`
	Phase1         struct {
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
	Retries     int64                   `json:"retries"`
	ShardErrors int64                   `json:"shard_errors"`
	PerShard    []CoordinatorShardStats `json:"per_shard"`
}

func hitRate(hits, misses int64) float64 {
	if total := hits + misses; total > 0 {
		return float64(hits) / float64(total)
	}
	return 0
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var p StatsPayload
	p.PerShard = make([]CoordinatorShardStats, len(s.shards))
	s.fanOut(-1, func(i int) error {
		p.PerShard[i] = s.shards[i].stats(r.Context())
		return nil
	})
	for _, e := range p.PerShard {
		if e.Stats != nil {
			p.add(e.Stats.IndexStatsPayload)
		}
	}
	size, hits, misses := s.cohorts.stats()
	p.SessionCache = CachePayload{Size: size, Hits: hits, Misses: misses, HitRate: hitRate(hits, misses)}
	p.ThresholdCache = p.SessionCache
	p.InFlight = s.inFlight.Load()
	p.MaxInFlight = s.cfg.MaxInFlight
	p.ServedQueries = s.served.Load()
	p.UptimeSeconds = time.Since(s.start).Seconds()
	p.Shards = len(s.shards)
	p.Phase1.Wave1Visited = s.wave1Visited.Load()
	p.Phase1.Wave2Visited = s.wave2Visited.Load()
	p.Phase1.Wave1Refined = s.wave1Refined.Load()
	p.Phase1.Wave2Refined = s.wave2Refined.Load()
	p.Scatter.Assigned = s.scatAssigned.Load()
	p.Scatter.Evaluated = s.scatEvaluated.Load()
	p.Scatter.SkippedFloor = s.scatSkipped.Load()
	p.Retries = s.retries.Load()
	p.ShardErrors = s.shardErrors.Load()
	writeJSON(w, func() ([]byte, error) { return appendNewline(json.Marshal(p)) })
}

// handleHealthz probes every shard: 200 with the fleet's object count
// (and a NewShard server's position), or 503 naming the shards that did
// not answer.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	objects := make([]int, len(s.shards))
	errs := s.fanOut(-1, func(i int) (err error) {
		objects[i], err = s.shards[i].objects(r.Context())
		return err
	})
	unreachable := []string{}
	total := 0
	for i, err := range errs {
		if err != nil {
			unreachable = append(unreachable, err.Error())
		}
		total += objects[i]
	}
	if len(unreachable) > 0 {
		writeStatus(w, http.StatusServiceUnavailable, map[string]any{"status": "degraded", "unreachable": unreachable})
		return
	}
	body := map[string]any{"status": "ok", "shards": len(s.shards), "objects": total}
	for k, v := range s.position {
		body[k] = v
	}
	writeJSON(w, func() ([]byte, error) { return appendNewline(json.Marshal(body)) })
}

// errorStatus classifies an error from the serving path: a request a shard
// refused is the client's 400; any other shard failure the fleet's 502; a
// missing object id 404; a storage fault (a corrupt or truncated index
// file, an I/O error from the backing file) 500; the rest, validation, 400.
func errorStatus(err error) int {
	switch {
	case refusedByShard(err):
		return http.StatusBadRequest
	case errors.As(err, new(*shardCallError)):
		return http.StatusBadGateway
	case errors.Is(err, maxbrstknn.ErrNoSuchObject):
		return http.StatusNotFound
	case errors.Is(err, storage.ErrBadMagic), errors.Is(err, storage.ErrVersionMismatch),
		errors.Is(err, storage.ErrChecksum), errors.Is(err, storage.ErrTruncated),
		errors.As(err, new(*fs.PathError)), errors.Is(err, io.ErrUnexpectedEOF):
		return http.StatusInternalServerError
	}
	return http.StatusBadRequest
}

func writeJSON(w http.ResponseWriter, encode func() ([]byte, error)) {
	body, err := encode()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeStatus(w, status, map[string]string{"error": err.Error()})
}

func writeStatus(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}
