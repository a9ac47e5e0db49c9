package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	maxbrstknn "repro"
)

// shard is one partition of the object set as the serving path sees it:
// phase 1, phase 2, top-k, stats and object count. localShard answers
// in-process through the facade; httpShard calls a NewShard server.
type shard interface {
	// phase1 computes the cohort's per-user top-k lists, pruned below
	// seeds (nil: none), and returns the session phase 2 must run on —
	// nil for a shard that keeps its own.
	phase1(ctx context.Context, q *query, seeds []float64) (maxbrstknn.ShardPhase1, *maxbrstknn.Session, error)
	// selectCands evaluates the assigned locations (see Session.Scatter).
	selectCands(ctx context.Context, sess *maxbrstknn.Session, q *query, rsk []float64, assigned []int, floor, l int) ([]maxbrstknn.ShardCandidate, maxbrstknn.ScatterStats, error)
	topK(ctx context.Context, q TopKRequest) ([]maxbrstknn.RankedObject, error)
	// stats returns the shard's entry in /stats.
	stats(ctx context.Context) CoordinatorShardStats
	objects(ctx context.Context) (int, error)
	// epoch is the shard's publication counter; an immutable shard's is 0.
	epoch() uint64
}

// localShard is an in-process index answered through the facade.
type localShard struct{ ix *maxbrstknn.Index }

func (l localShard) phase1(_ context.Context, q *query, seeds []float64) (maxbrstknn.ShardPhase1, *maxbrstknn.Session, error) {
	sess, err := l.ix.NewUnpreparedSession(q.req.Users, q.req.K)
	if err != nil {
		return maxbrstknn.ShardPhase1{}, nil, err
	}
	ph, err := sess.Phase1(seeds, q.req.Parallel)
	if err != nil {
		sess.Close()
		return maxbrstknn.ShardPhase1{}, nil, err
	}
	return ph, sess, nil
}

func (localShard) selectCands(_ context.Context, sess *maxbrstknn.Session, q *query, rsk []float64, assigned []int, floor, l int) ([]maxbrstknn.ShardCandidate, maxbrstknn.ScatterStats, error) {
	return sess.Scatter(q.req, rsk, assigned, floor, l)
}

func (l localShard) topK(_ context.Context, q TopKRequest) ([]maxbrstknn.RankedObject, error) {
	return l.ix.TopK(q.X, q.Y, q.Keywords, q.K)
}

func (l localShard) stats(context.Context) CoordinatorShardStats {
	return CoordinatorShardStats{Addr: "in-process", Stats: &StatsPayload{IndexStatsPayload: indexStats(l.ix)}}
}

func (l localShard) objects(context.Context) (int, error) { return l.ix.NumObjects(), nil }

func (l localShard) epoch() uint64 { return l.ix.Epoch() }

// httpShard is a NewShard server reached over HTTP/JSON. Its calls feed
// the owning server's retry and error counters.
type httpShard struct {
	s         *Server
	id        int
	addr      string
	client    *http.Client
	timeout   time.Duration
	calls     atomic.Int64
	latencyNs atomic.Int64
}

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

// refusedByShard reports whether a shard refused the client's request (400).
func refusedByShard(err error) bool {
	var se *statusError
	return errors.As(err, &se) && se.code == http.StatusBadRequest
}

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

func (h *httpShard) fail(err error) error {
	return &shardCallError{shard: h.id, addr: h.addr, err: err}
}

// call performs one shard RPC: JSON in, JSON out, under a fresh
// ShardTimeout. Transport failures retry exactly once (fresh timeout)
// while the parent request is still alive; delivered HTTP errors never
// retry. Every failure is wrapped to name the shard; it is a shard error
// unless the caller's context ended it or the shard refused the request.
func (h *httpShard) call(ctx context.Context, method, path string, body, into any) error {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return h.fail(err)
		}
	}
	attempt := func() error {
		sctx, cancel := context.WithTimeout(ctx, h.timeout)
		defer cancel()
		req, err := http.NewRequestWithContext(sctx, method, h.addr+path, bytes.NewReader(payload))
		if err != nil {
			return err
		}
		if payload != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		began := time.Now()
		resp, err := h.client.Do(req)
		h.calls.Add(1)
		h.latencyNs.Add(int64(time.Since(began)))
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
		return json.Unmarshal(data, into)
	}
	err := attempt()
	var te *transportError
	if errors.As(err, &te) && ctx.Err() == nil {
		h.s.retries.Add(1)
		err = attempt()
	}
	if err != nil {
		if ctx.Err() == nil && !refusedByShard(err) {
			h.s.shardErrors.Add(1)
		}
		return h.fail(err)
	}
	return nil
}

func (h *httpShard) phase1(ctx context.Context, q *query, seeds []float64) (maxbrstknn.ShardPhase1, *maxbrstknn.Session, error) {
	var resp Phase1Response
	if err := h.call(ctx, http.MethodPost, "/shard/phase1",
		Phase1Request{Users: q.wire.Users, K: q.wire.K, Seeds: seeds, Parallel: q.wire.Parallel}, &resp); err != nil {
		return maxbrstknn.ShardPhase1{}, nil, err
	}
	if len(resp.PerUser) != len(q.wire.Users) {
		return maxbrstknn.ShardPhase1{}, nil,
			h.fail(fmt.Errorf("returned %d user lists for a %d-user cohort", len(resp.PerUser), len(q.wire.Users)))
	}
	ph := maxbrstknn.ShardPhase1{PerUser: make([][]maxbrstknn.RankedObject, len(resp.PerUser)), Visited: resp.Visited, Refined: resp.Refined}
	for u, list := range resp.PerUser {
		ph.PerUser[u] = rankedObjects(list)
	}
	return ph, nil, nil
}

func (h *httpShard) selectCands(ctx context.Context, _ *maxbrstknn.Session, q *query, rsk []float64, assigned []int, floor, l int) ([]maxbrstknn.ShardCandidate, maxbrstknn.ScatterStats, error) {
	var resp SelectResponse
	if err := h.call(ctx, http.MethodPost, "/shard/select",
		SelectRequest{Query: q.wire, RSK: rsk, Assigned: assigned, Floor: floor, List: l > 0, L: l}, &resp); err != nil {
		return nil, maxbrstknn.ScatterStats{}, err
	}
	cands := make([]maxbrstknn.ShardCandidate, len(resp.Candidates))
	for i, c := range resp.Candidates {
		cands[i] = maxbrstknn.ShardCandidate{Result: resultFromPayload(c.Result), LU: c.LU}
	}
	return cands, maxbrstknn.ScatterStats{
		Assigned: resp.Stats.Assigned, Evaluated: resp.Stats.Evaluated, SkippedFloor: resp.Stats.SkippedFloor,
	}, nil
}

func (h *httpShard) topK(ctx context.Context, q TopKRequest) ([]maxbrstknn.RankedObject, error) {
	var resp topKResponse
	if err := h.call(ctx, http.MethodPost, "/topk", q, &resp); err != nil {
		return nil, err
	}
	return rankedObjects(resp.Results), nil
}

func (h *httpShard) stats(ctx context.Context) CoordinatorShardStats {
	var st StatsPayload
	err := h.call(ctx, http.MethodGet, "/stats", nil, &st)
	e := CoordinatorShardStats{Addr: h.addr, Calls: h.calls.Load()}
	if e.Calls > 0 {
		e.AvgLatencyMs = float64(h.latencyNs.Load()) / float64(e.Calls) / 1e6
	}
	if err != nil {
		e.Error = err.Error()
	} else {
		e.Stats = &st
	}
	return e
}

func (h *httpShard) objects(ctx context.Context) (int, error) {
	var health struct {
		Objects int `json:"objects"`
	}
	err := h.call(ctx, http.MethodGet, "/healthz", nil, &health)
	return health.Objects, err
}

func (h *httpShard) epoch() uint64 { return 0 }

// NewShard serves one shard index to a coordinator: the wire endpoints
// /shard/phase1 and /shard/select, plus /topk (global ids), /stats and
// /healthz. The cohort query endpoints and mutations answer 501 — a
// shard alone cannot answer them correctly, only the coordinator's merge
// can. A cohort's session is cached across the coordinator's phase-1 and
// phase-2 calls for it.
func NewShard(six *maxbrstknn.ShardIndex, id, total int, cfg Config) *Server {
	s := newServer(cfg, six.Index)
	s.shards = []shard{localShard{six.Index}}
	s.position = map[string]int{"shard": id, "shards": total}
	mux := http.NewServeMux()
	mux.Handle("POST /shard/phase1", s.limited(s.handleShardPhase1))
	mux.Handle("POST /shard/select", s.limited(s.handleShardSelect))
	mux.Handle("POST /topk", s.limited(s.handleTopK))
	refuse(mux, "is not served by a shard (use the coordinator)",
		"POST /maxbrstknn", "POST /topl", "POST /multiple", "POST /add", "POST /delete", "POST /update")
	return s.serve(mux)
}

// shardSession returns the cached session a shard server runs a cohort's
// calls on, building it on first sight, and the release the handler
// calls when done with it.
func (s *Server) shardSession(users []UserSpec, k int) (*maxbrstknn.Session, func(), error) {
	specs := userSpecs(users)
	epoch := s.epoch()
	co, release, err := s.cohorts.get(sessionKey(epoch, specs, k), epoch, func() (*cohort, error) {
		sess, err := s.ix.NewUnpreparedSession(specs, k)
		return &cohort{sessions: []*maxbrstknn.Session{sess}}, err
	})
	if err != nil {
		return nil, nil, err
	}
	return co.sessions[0], release, nil
}

func (s *Server) handleShardPhase1(w http.ResponseWriter, r *http.Request) {
	var wire Phase1Request
	if err := s.decodeBody(w, r, &wire); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	sess, release, err := s.shardSession(wire.Users, wire.K)
	if err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	defer release()
	ph, err := sess.Phase1(wire.Seeds, parallelOptions(wire.Parallel))
	if err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	resp := Phase1Response{PerUser: make([][]RankedPayload, len(ph.PerUser)), Visited: ph.Visited, Refined: ph.Refined}
	for u, list := range ph.PerUser {
		resp.PerUser[u] = rankedPayloads(list)
	}
	writeJSON(w, func() ([]byte, error) { return appendNewline(json.Marshal(resp)) })
}

func (s *Server) handleShardSelect(w http.ResponseWriter, r *http.Request) {
	var wire SelectRequest
	if err := s.decodeBody(w, r, &wire); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	req, err := wire.Query.ToRequest()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	sess, release, err := s.shardSession(wire.Query.Users, req.K)
	if err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	defer release()
	l := 0
	if wire.List {
		l = wire.L
		if l <= 0 {
			l = len(req.Locations) // a list scan without l skips nothing
		}
	}
	cands, st, err := sess.Scatter(req, wire.RSK, wire.Assigned, wire.Floor, l)
	if err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	resp := SelectResponse{
		Candidates: make([]ShardCandidatePayload, len(cands)),
		Stats:      ScatterStatsPayload{Assigned: st.Assigned, Evaluated: st.Evaluated, SkippedFloor: st.SkippedFloor},
	}
	for i, c := range cands {
		resp.Candidates[i] = ShardCandidatePayload{Result: PayloadFromResult(c.Result), LU: c.LU}
	}
	writeJSON(w, func() ([]byte, error) { return appendNewline(json.Marshal(resp)) })
}
