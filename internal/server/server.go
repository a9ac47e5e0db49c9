package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"runtime"
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
	// SessionCapacity is the LRU session-cache size in prepared user
	// cohorts (default 64). Zero selects the default; negative disables
	// the bound (never evict).
	SessionCapacity int
	// MaxBodyBytes bounds one request body (default 8 MiB); oversized
	// bodies fail decoding with 400 before any work happens.
	MaxBodyBytes int64
}

func (c Config) addr() string {
	if c.Addr == "" {
		return ":8080"
	}
	return c.Addr
}

func (c Config) maxInFlight() int {
	if c.MaxInFlight <= 0 {
		return 4 * runtime.GOMAXPROCS(0)
	}
	return c.MaxInFlight
}

func (c Config) requestTimeout() time.Duration {
	if c.RequestTimeout <= 0 {
		return 30 * time.Second
	}
	return c.RequestTimeout
}

func (c Config) maxBodyBytes() int64 {
	if c.MaxBodyBytes <= 0 {
		return 8 << 20
	}
	return c.MaxBodyBytes
}

func (c Config) sessionCapacity() int {
	if c.SessionCapacity == 0 {
		return 64
	}
	if c.SessionCapacity < 0 {
		return 0 // unbounded
	}
	return c.SessionCapacity
}

// Server shares one loaded index across concurrent HTTP clients. All
// handlers are safe for concurrent use; the underlying Index and Session
// guarantees (see their godoc) make every query path race-clean.
type Server struct {
	ix       *maxbrstknn.Index
	cfg      Config
	shard    *shardState // non-nil only for NewShard servers
	sessions *lruCache[*maxbrstknn.Session]
	sem      chan struct{}
	inFlight atomic.Int64
	served   atomic.Int64
	start    time.Time
	httpSrv  *http.Server
}

// New wraps an index (in-memory or loaded) in a serving layer.
func New(ix *maxbrstknn.Index, cfg Config) *Server {
	s := &Server{
		ix:       ix,
		cfg:      cfg,
		sessions: newLRUCache[*maxbrstknn.Session](cfg.sessionCapacity()),
		sem:      make(chan struct{}, cfg.maxInFlight()),
		start:    time.Now(),
	}
	s.httpSrv = &http.Server{Addr: cfg.addr(), Handler: s.Handler()}
	return s
}

// Handler returns the full route table — exported so tests and embedders
// can serve it from their own listener (httptest, TLS, unix socket). A
// server built with NewShard serves the shard route table instead.
func (s *Server) Handler() http.Handler {
	if s.shard != nil {
		return s.shardHandler()
	}
	mux := http.NewServeMux()
	mux.Handle("POST /maxbrstknn", s.limited(s.handleMaxBRSTkNN))
	mux.Handle("POST /topl", s.limited(s.handleTopL))
	mux.Handle("POST /multiple", s.limited(s.handleMultiple))
	mux.Handle("POST /topk", s.limited(s.handleTopK))
	mux.Handle("POST /add", s.limited(s.handleAdd))
	mux.Handle("POST /delete", s.limited(s.handleDelete))
	mux.Handle("POST /update", s.limited(s.handleUpdate))
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return timeoutHandler(mux, s.cfg.requestTimeout())
}

// timeoutHandler bounds a route table's response time with the shared
// JSON error body.
func timeoutHandler(h http.Handler, d time.Duration) http.Handler {
	timeoutBody, _ := json.Marshal(map[string]string{"error": "request timed out"})
	return http.TimeoutHandler(h, d, string(timeoutBody))
}

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

// session returns the prepared session for the request's user cohort,
// building (and caching) it on first sight. The request's ParallelOptions
// configure the build's joint top-k phase on a miss; the prepared
// thresholds are identical for every setting, so cache hits across
// differently-parallel requests are sound. The cache key carries the
// current epoch, so sessions prepared before a mutation are never reused
// afterwards — each request's session reflects the snapshot current when
// its cohort was first seen at that epoch.
func (s *Server) session(req maxbrstknn.Request) (*maxbrstknn.Session, error) {
	key := sessionKey(s.ix.Epoch(), req.Users, req.K)
	return s.sessions.get(key, func() (*maxbrstknn.Session, error) {
		return s.ix.NewParallelSession(req.Users, req.K, req.Parallel)
	})
}

func (s *Server) handleMaxBRSTkNN(w http.ResponseWriter, r *http.Request) {
	_, req, ok := s.decodeQuery(w, r)
	if !ok {
		return
	}
	sess, err := s.session(req)
	if err != nil {
		writeError(w, queryErrorStatus(err), err)
		return
	}
	res, err := sess.Run(req)
	if err != nil {
		writeError(w, queryErrorStatus(err), err)
		return
	}
	writeJSON(w, func() ([]byte, error) { return ResultJSON(res) })
}

func (s *Server) handleTopL(w http.ResponseWriter, r *http.Request) {
	s.handleList(w, r, func(sess *maxbrstknn.Session, req maxbrstknn.Request, n int) ([]maxbrstknn.Result, error) {
		return sess.RunTopL(req, n)
	}, func(q *QueryRequest) int { return q.L })
}

func (s *Server) handleMultiple(w http.ResponseWriter, r *http.Request) {
	s.handleList(w, r, func(sess *maxbrstknn.Session, req maxbrstknn.Request, n int) ([]maxbrstknn.Result, error) {
		return sess.RunMultiple(req, n)
	}, func(q *QueryRequest) int { return q.M })
}

// handleList factors the shared shape of /topl and /multiple: decode,
// session lookup, run with a count parameter, encode a result list.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request,
	run func(*maxbrstknn.Session, maxbrstknn.Request, int) ([]maxbrstknn.Result, error),
	count func(*QueryRequest) int) {

	wire, req, ok := s.decodeQuery(w, r)
	if !ok {
		return
	}
	// Reject unsupported strategies before the session lookup: building
	// (and caching) a cohort's joint top-k only for RunTopL/RunMultiple
	// to refuse the strategy would burn the most expensive computation in
	// the system on a doomed request.
	if req.Strategy != maxbrstknn.Exact && req.Strategy != maxbrstknn.Approx {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("this endpoint does not support the %s strategy (use exact or approx)", req.Strategy))
		return
	}
	n := count(wire)
	if n <= 0 {
		n = 1
	}
	sess, err := s.session(req)
	if err != nil {
		writeError(w, queryErrorStatus(err), err)
		return
	}
	results, err := run(sess, req, n)
	if err != nil {
		writeError(w, queryErrorStatus(err), err)
		return
	}
	writeJSON(w, func() ([]byte, error) { return ResultsJSON(results) })
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	var wire TopKRequest
	if err := s.decodeBody(w, r, &wire); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	res, err := s.ix.TopK(wire.X, wire.Y, wire.Keywords, wire.K)
	if err != nil {
		writeError(w, queryErrorStatus(err), err)
		return
	}
	writeJSON(w, func() ([]byte, error) { return TopKJSON(res) })
}

func (s *Server) handleAdd(w http.ResponseWriter, r *http.Request) {
	var wire AddRequest
	if err := s.decodeBody(w, r, &wire); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	id, err := s.ix.AddObject(wire.X, wire.Y, wire.Keywords...)
	if err != nil {
		writeError(w, mutationErrorStatus(err), err)
		return
	}
	s.writeMutation(w, id)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	var wire DeleteRequest
	if err := s.decodeBody(w, r, &wire); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.ix.DeleteObject(wire.ID); err != nil {
		writeError(w, mutationErrorStatus(err), err)
		return
	}
	s.writeMutation(w, wire.ID)
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	var wire UpdateRequest
	if err := s.decodeBody(w, r, &wire); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	id, err := s.ix.UpdateObject(wire.ID, wire.X, wire.Y, wire.Keywords...)
	if err != nil {
		writeError(w, mutationErrorStatus(err), err)
		return
	}
	s.writeMutation(w, id)
}

// writeMutation reports a successful mutation: the object id it touched
// (for /add and /update, the id the caller queries by afterwards) and
// the state of the index after it. Epoch and live count come from one
// snapshot load, so they are mutually consistent — though with other
// writers running they may describe a later epoch than this mutation's.
func (s *Server) writeMutation(w http.ResponseWriter, id int) {
	st := s.ix.IngestStats()
	writeJSON(w, func() ([]byte, error) {
		return appendNewline(json.Marshal(MutationResponse{
			ID:          id,
			Epoch:       st.Epoch,
			LiveObjects: st.LiveObjects,
		}))
	})
}

// mutationErrorStatus classifies an error from the ingestion path:
// a missing object id is the client's mistake (404), storage faults are
// server errors, everything else is request validation (400).
func mutationErrorStatus(err error) int {
	if errors.Is(err, maxbrstknn.ErrNoSuchObject) {
		return http.StatusNotFound
	}
	return queryErrorStatus(err)
}

// StatsPayload is the /stats response body.
type StatsPayload struct {
	Objects         int   `json:"objects"`
	SimulatedIO     int64 `json:"simulated_io"`
	PhysicalRecords int64 `json:"physical_records"`
	PhysicalPages   int64 `json:"physical_pages"`
	BufferHits      int64 `json:"buffer_hits"`
	BufferMisses    int64 `json:"buffer_misses"`
	// DecodedCache reports the decoded-object cache above the buffer
	// pool: decoded tree nodes and posting lists shared across requests.
	DecodedCache struct {
		Hits      int64   `json:"hits"`
		Misses    int64   `json:"misses"`
		Evictions int64   `json:"evictions"`
		Entries   int     `json:"entries"`
		Bytes     int64   `json:"bytes"`
		CapBytes  int64   `json:"cap_bytes"`
		HitRate   float64 `json:"hit_rate"`
	} `json:"decoded_cache"`
	SessionCache struct {
		Size    int     `json:"size"`
		Hits    int64   `json:"hits"`
		Misses  int64   `json:"misses"`
		HitRate float64 `json:"hit_rate"`
	} `json:"session_cache"`
	// Ingest reports the copy-on-write ingestion machinery: the current
	// epoch (one increment per published mutation), live vs allocated
	// object ids, and the store records superseded by mutations and not
	// yet reclaimed — a gauge that falls back to zero on an in-memory index
	// once no session pins an older snapshot, and grows until a compacting
	// rebuild on a file-backed one.
	Ingest struct {
		Epoch          uint64 `json:"epoch"`
		LiveObjects    int    `json:"live_objects"`
		TotalObjects   int    `json:"total_objects"`
		RetiredRecords int64  `json:"retired_records"`
		RetiredPages   int64  `json:"retired_pages"`
	} `json:"ingest"`
	InFlight      int64   `json:"in_flight"`
	MaxInFlight   int     `json:"max_in_flight"`
	ServedQueries int64   `json:"served_queries"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	var p StatsPayload
	p.Objects = s.ix.NumObjects()
	p.SimulatedIO = s.ix.SimulatedIO()
	p.PhysicalRecords, p.PhysicalPages = s.ix.ReadStats()
	cs := s.ix.CacheStats()
	p.BufferHits, p.BufferMisses = cs.BufferHits, cs.BufferMisses
	p.DecodedCache.Hits, p.DecodedCache.Misses = cs.DecodedHits, cs.DecodedMisses
	p.DecodedCache.Evictions = cs.DecodedEvictions
	p.DecodedCache.Entries, p.DecodedCache.Bytes = cs.DecodedEntries, cs.DecodedBytes
	p.DecodedCache.CapBytes = cs.DecodedCapBytes
	if total := cs.DecodedHits + cs.DecodedMisses; total > 0 {
		p.DecodedCache.HitRate = float64(cs.DecodedHits) / float64(total)
	}
	ing := s.ix.IngestStats()
	p.Ingest.Epoch = ing.Epoch
	p.Ingest.LiveObjects, p.Ingest.TotalObjects = ing.LiveObjects, ing.TotalObjects
	p.Ingest.RetiredRecords, p.Ingest.RetiredPages = ing.RetiredRecords, ing.RetiredPages
	size, hits, misses := s.sessions.stats()
	p.SessionCache.Size, p.SessionCache.Hits, p.SessionCache.Misses = size, hits, misses
	if total := hits + misses; total > 0 {
		p.SessionCache.HitRate = float64(hits) / float64(total)
	}
	p.InFlight = s.inFlight.Load()
	p.MaxInFlight = s.cfg.maxInFlight()
	p.ServedQueries = s.served.Load()
	p.UptimeSeconds = time.Since(s.start).Seconds()
	writeJSON(w, func() ([]byte, error) { return appendNewline(json.Marshal(p)) })
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, func() ([]byte, error) {
		return appendNewline(json.Marshal(map[string]any{
			"status":  "ok",
			"objects": s.ix.NumObjects(),
		}))
	})
}

// decodeBody decodes one JSON request body under the configured size
// bound — the shared entry point of every query endpoint, so body limits
// and error shapes cannot drift between handlers.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, into any) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.maxBodyBytes())
	if err := json.NewDecoder(r.Body).Decode(into); err != nil {
		return fmt.Errorf("invalid JSON body: %w", err)
	}
	return nil
}

func (s *Server) decodeQuery(w http.ResponseWriter, r *http.Request) (*QueryRequest, maxbrstknn.Request, bool) {
	var wire QueryRequest
	if err := s.decodeBody(w, r, &wire); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil, maxbrstknn.Request{}, false
	}
	req, err := wire.ToRequest()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil, maxbrstknn.Request{}, false
	}
	return &wire, req, true
}

// queryErrorStatus classifies an error from the query path: storage-layer
// faults (a corrupt or truncated index file surfacing mid-traversal, an
// I/O error from the backing file) are server errors; everything else the
// library returns is request validation and maps to 400.
func queryErrorStatus(err error) int {
	for _, sentinel := range []error{
		storage.ErrBadMagic, storage.ErrVersionMismatch, storage.ErrChecksum, storage.ErrTruncated,
	} {
		if errors.Is(err, sentinel) {
			return http.StatusInternalServerError
		}
	}
	var pathErr *fs.PathError
	if errors.As(err, &pathErr) || errors.Is(err, io.ErrUnexpectedEOF) {
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
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
