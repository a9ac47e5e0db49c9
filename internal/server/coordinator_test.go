package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	maxbrstknn "repro"
	"repro/internal/dataset"
	"repro/internal/testgen"
)

// coordFixture builds testgen's draw 322, 108 objects, into a global
// index, and returns them with a wire query of its first request: 12
// users, three holding a keyword of no vocabulary, which every shard must
// treat identically.
func coordFixture(t testing.TB) ([]dataset.Object, *maxbrstknn.Index, QueryRequest) {
	t.Helper()
	d := testgen.Draw(322)
	q := d.Queries[0]
	b := maxbrstknn.NewBuilder()
	for _, o := range d.Corpus {
		b.AddObject(o.Loc.X, o.Loc.Y, testgen.Keywords(o.Doc)...)
	}
	idx, err := b.Build(maxbrstknn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wire := QueryRequest{MaxKeywords: q.WS, K: d.K, ExistingKeywords: testgen.Keywords(q.OxDoc)}
	for _, u := range d.Users {
		wire.Users = append(wire.Users, UserSpec{X: u.Loc.X, Y: u.Loc.Y, Keywords: testgen.Keywords(u.Doc)})
	}
	for _, p := range q.Locations {
		wire.Locations = append(wire.Locations, [2]float64{p.X, p.Y})
	}
	for _, t := range q.W {
		wire.Keywords = append(wire.Keywords, testgen.Name(t))
	}
	return d.Corpus, idx, wire
}

// buildShardIndexes splits the objects round-robin into n shard indexes
// under the global frozen corpus.
func buildShardIndexes(t testing.TB, objs []dataset.Object, fc maxbrstknn.FrozenCorpus, n int) []*maxbrstknn.ShardIndex {
	t.Helper()
	out := make([]*maxbrstknn.ShardIndex, n)
	for s := range out {
		sb := maxbrstknn.NewShardBuilder(fc)
		for gid := s; gid < len(objs); gid += n {
			if err := sb.AddObject(gid, objs[gid].Loc.X, objs[gid].Loc.Y, testgen.Keywords(objs[gid].Doc)...); err != nil {
				t.Fatal(err)
			}
		}
		six, err := sb.Build(maxbrstknn.Options{})
		if err != nil {
			t.Fatal(err)
		}
		out[s] = six
	}
	return out
}

// serveShards serves each shard index from its own listener.
func serveShards(t testing.TB, shards []*maxbrstknn.ShardIndex) []*httptest.Server {
	t.Helper()
	out := make([]*httptest.Server, len(shards))
	for s, six := range shards {
		ts := httptest.NewServer(NewShard(six, s, len(shards), Config{}).Handler())
		t.Cleanup(ts.Close)
		out[s] = ts
	}
	return out
}

// buildShardServers splits the objects into n shard indexes and serves
// each from its own listener.
func buildShardServers(t testing.TB, objs []dataset.Object, fc maxbrstknn.FrozenCorpus, n int) []*httptest.Server {
	t.Helper()
	return serveShards(t, buildShardIndexes(t, objs, fc, n))
}

// newCoordinatorTS wires a coordinator over the given shard servers.
func newCoordinatorTS(t testing.TB, shardTS []*httptest.Server, cfg CoordinatorConfig) (*Coordinator, *httptest.Server) {
	t.Helper()
	cfg.Shards = make([]string, len(shardTS))
	for i, ts := range shardTS {
		cfg.Shards[i] = ts.URL
	}
	coord, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(ts.Close)
	return coord, ts
}

// TestCoordinatorByteIdentical is the sharded serving guarantee: every
// endpoint answered through scatter-gather over 1, 2 and 4 shards returns
// exactly the bytes the single-index server returns — for every
// scatterable strategy, several parallelism settings, and /topl lengths
// from 1 to every location (shards skip by l).
func TestCoordinatorByteIdentical(t *testing.T) {
	objs, idx, wire := coordFixture(t)
	fc := idx.FrozenCorpus()
	single := httptest.NewServer(New(idx, Config{}).Handler())
	defer single.Close()

	for _, n := range []int{1, 2, 4} {
		shardTS := buildShardServers(t, objs, fc, n)
		_, coordTS := newCoordinatorTS(t, shardTS, CoordinatorConfig{})

		check := func(path string, body QueryRequest, label string) {
			t.Helper()
			wantResp, want := postJSON(t, single, path, body)
			resp, got := postJSON(t, coordTS, path, body)
			if resp.StatusCode != wantResp.StatusCode {
				t.Fatalf("n=%d %s %s: status %d, single-index %d: %s", n, path, label, resp.StatusCode, wantResp.StatusCode, got)
			}
			if wantResp.StatusCode == http.StatusOK && !bytes.Equal(got, want) {
				t.Errorf("n=%d %s %s: not byte-identical:\n got %s\nwant %s", n, path, label, got, want)
			}
		}

		for _, strat := range []string{"exact", "approx", "exhaustive"} {
			for _, par := range []ParallelSpec{{}, {Workers: 2}, {Workers: 4, Groups: 8}} {
				q := wire
				q.Strategy, q.Parallel = strat, par
				check("/maxbrstknn", q, fmt.Sprintf("%s/%+v", strat, par))
				if strat != "exhaustive" {
					for _, l := range []int{1, 3, len(q.Locations)} {
						for _, ws := range []int{0, 2} {
							q.L, q.MaxKeywords = l, ws
							check("/topl", q, fmt.Sprintf("%s/l=%d/ws=%d", strat, l, ws))
						}
					}
					q.L, q.M = 0, 3
					check("/multiple", q, strat)
				}
			}
		}

		checkTopK(t, single, coordTS, TopKRequest{X: 4.2, Y: 5.1, Keywords: []string{"w0", "w1"}, K: 5}, fmt.Sprintf("n=%d", n))
	}

	// /topk over exact ties: every object three times, at one point with
	// the same keywords, the copies dealt to different shards. A single
	// index ranks tied objects by ascending id, as the merge does, so the
	// cut inside a tie group keeps the same copies.
	var ties []dataset.Object
	for _, o := range objs[:40] {
		ties = append(ties, o, o, o)
	}
	tb := maxbrstknn.NewBuilder()
	for _, o := range ties {
		tb.AddObject(o.Loc.X, o.Loc.Y, testgen.Keywords(o.Doc)...)
	}
	tidx, err := tb.Build(maxbrstknn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tsingle := httptest.NewServer(New(tidx, Config{}).Handler())
	defer tsingle.Close()
	for _, n := range []int{2, 3} {
		_, coordTS := newCoordinatorTS(t, buildShardServers(t, ties, tidx.FrozenCorpus(), n), CoordinatorConfig{})
		for i, o := range ties[:12] {
			checkTopK(t, tsingle, coordTS, TopKRequest{X: o.Loc.X, Y: o.Loc.Y, Keywords: testgen.Keywords(o.Doc), K: 1 + i%5}, fmt.Sprintf("ties n=%d user %d", n, i))
		}
	}
}

// checkTopK requires the coordinator's /topk answer to be the single
// index's bytes.
func checkTopK(t *testing.T, single, coord *httptest.Server, body TopKRequest, label string) {
	t.Helper()
	_, want := postJSON(t, single, "/topk", body)
	resp, got := postJSON(t, coord, "/topk", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s /topk: status %d: %s", label, resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s /topk: not byte-identical:\n got %s\nwant %s", label, got, want)
	}
}

// TestCoordinatorForwardingSavesWork: the coordinator's second-wave
// traversals, seeded with the primary's bounds, must visit no more nodes
// and refine strictly fewer candidates than the same shards' unseeded
// phase 1 called through the library — the measurable effect of bound
// forwarding — while its primary wave is exactly that unseeded phase 1.
func TestCoordinatorForwardingSavesWork(t *testing.T) {
	objs, idx, wire := coordFixture(t)
	shards := buildShardIndexes(t, objs, idx.FrozenCorpus(), 4)
	coord, coordTS := newCoordinatorTS(t, serveShards(t, shards), CoordinatorConfig{})

	// Small spatial groups give the refinement per-candidate bounds teeth
	// (a 24-user group bound is too loose for any threshold to prune
	// against on a fixture this small).
	q := wire
	q.Strategy = "exact"
	q.Parallel = ParallelSpec{Workers: 2, Groups: 8}
	if resp, body := postJSON(t, coordTS, "/maxbrstknn", q); resp.StatusCode != http.StatusOK {
		t.Fatalf("query failed: %d: %s", resp.StatusCode, body)
	}

	// The unseeded baseline, per shard; the primary is the largest shard
	// (the first on ties), as the coordinator picks it.
	specs := make([]maxbrstknn.UserSpec, len(q.Users))
	for i, u := range q.Users {
		specs[i] = maxbrstknn.UserSpec{X: u.X, Y: u.Y, Keywords: u.Keywords}
	}
	primary := 0
	var w1Visited, w1Refined, w2Visited, w2Refined int64
	for s, six := range shards {
		if six.NumObjects() > shards[primary].NumObjects() {
			primary = s
		}
	}
	for s, six := range shards {
		ss, err := six.NewUnpreparedSession(specs, q.K)
		if err != nil {
			t.Fatal(err)
		}
		ph, err := ss.Phase1(nil, maxbrstknn.ParallelOptions{Workers: 2, Groups: 8})
		ss.Close()
		if err != nil {
			t.Fatal(err)
		}
		if s == primary {
			w1Visited, w1Refined = int64(ph.Visited), int64(ph.Refined)
		} else {
			w2Visited += int64(ph.Visited)
			w2Refined += int64(ph.Refined)
		}
	}

	if got := coord.wave1Visited.Load(); got != w1Visited {
		t.Fatalf("primary wave visited %d nodes, unseeded phase 1 %d", got, w1Visited)
	}
	if got := coord.wave1Refined.Load(); got != w1Refined {
		t.Fatalf("primary wave refined %d candidates, unseeded phase 1 %d", got, w1Refined)
	}
	if got := coord.wave2Visited.Load(); got > w2Visited {
		t.Fatalf("forwarded second wave visited %d nodes, unseeded %d", got, w2Visited)
	}
	// The refinement counter is where seeding must show: a seeded
	// threshold truncates each wave-2 candidate scan strictly earlier.
	if got := coord.wave2Refined.Load(); got >= w2Refined {
		t.Fatalf("forwarded second wave refined %d candidates, unseeded %d: seeding saved nothing", got, w2Refined)
	}
}

// TestCoordinatorKilledShard: a dead shard turns queries into 502s that
// name the failing shard, and /healthz into a 503 listing it.
func TestCoordinatorKilledShard(t *testing.T) {
	objs, idx, wire := coordFixture(t)
	shardTS := buildShardServers(t, objs, idx.FrozenCorpus(), 2)
	coord, coordTS := newCoordinatorTS(t, shardTS, CoordinatorConfig{})
	shardTS[1].Close()

	q := wire
	q.Strategy = "exact"
	resp, body := postJSON(t, coordTS, "/maxbrstknn", q)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("query against dead shard: status %d, want 502: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "shard 1") {
		t.Fatalf("502 does not name the failing shard: %s", body)
	}
	if coord.shardErrors.Load() == 0 {
		t.Fatal("a dead shard's 502 counted no shard error")
	}

	hresp, hbody := getBody(t, coordTS, "/healthz")
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/healthz with dead shard: status %d, want 503: %s", hresp.StatusCode, hbody)
	}
	if !strings.Contains(string(hbody), "shard 1") {
		t.Fatalf("503 does not name the unreachable shard: %s", hbody)
	}
}

// TestCoordinatorRetriesConnectionErrors: a connection torn down before
// any response is retried exactly once and succeeds invisibly; a
// delivered HTTP error (here a shard-validated 400) is never retried.
func TestCoordinatorRetriesConnectionErrors(t *testing.T) {
	objs, idx, wire := coordFixture(t)
	shardTS := buildShardServers(t, objs, idx.FrozenCorpus(), 1)

	// A flaky front: drops the first connection of each burst cold, then
	// forwards to the real shard.
	var drop atomic.Bool
	drop.Store(true)
	inner := shardTS[0]
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if drop.CompareAndSwap(true, false) {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Error("test server does not support hijacking")
				return
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			conn.Close()
			return
		}
		proxyReq, err := http.NewRequestWithContext(r.Context(), r.Method, inner.URL+r.URL.Path, r.Body)
		if err != nil {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		proxyReq.Header = r.Header
		resp, err := http.DefaultClient.Do(proxyReq)
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		w.Write(buf.Bytes())
	}))
	defer flaky.Close()

	coord, coordTS := newCoordinatorTS(t, []*httptest.Server{flaky}, CoordinatorConfig{})

	q := wire
	q.Strategy = "exact"
	resp, body := postJSON(t, coordTS, "/maxbrstknn", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query through flaky shard: status %d: %s", resp.StatusCode, body)
	}
	if got := coord.retries.Load(); got != 1 {
		t.Fatalf("retries = %d, want exactly 1", got)
	}

	// HTTP-level failure: a shard index refuses the user-indexed
	// strategy with 400 (only a whole index answers it); the coordinator
	// passes it through without retrying.
	q.Strategy = "user-indexed"
	resp, body = postJSON(t, coordTS, "/maxbrstknn", q)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "shard 0") {
		t.Fatalf("shard-refused query: status %d, want a 400 naming shard 0: %s", resp.StatusCode, body)
	}
	if got := coord.retries.Load(); got != 1 {
		t.Fatalf("HTTP error was retried: retries = %d, want 1", got)
	}
}

// TestCoordinatorCancelledRequesterDoesNotFailJoiners: the first request
// for a cohort builds its thresholds for every request that joins it, so
// that client going away must neither fail the joiners nor count as a
// shard error.
func TestCoordinatorCancelledRequesterDoesNotFailJoiners(t *testing.T) {
	objs, idx, wire := coordFixture(t)
	shards := buildShardIndexes(t, objs, idx.FrozenCorpus(), 2)
	arrived := make(chan struct{}, len(shards))
	release := make(chan struct{})
	shardTS := make([]*httptest.Server, len(shards))
	for s, six := range shards {
		inner := NewShard(six, s, len(shards), Config{}).Handler()
		shardTS[s] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/shard/phase1" {
				arrived <- struct{}{}
				<-release
			}
			inner.ServeHTTP(w, r)
		}))
		t.Cleanup(shardTS[s].Close)
	}
	coord, coordTS := newCoordinatorTS(t, shardTS, CoordinatorConfig{})
	single := httptest.NewServer(New(idx, Config{}).Handler())
	defer single.Close()
	q := wire
	q.Strategy = "exact"
	_, want := postJSON(t, single, "/maxbrstknn", q)
	body, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	post := func(ctx context.Context) (int, []byte, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, coordTS.URL+"/maxbrstknn", bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		return resp.StatusCode, got, err
	}

	ctxA, cancelA := context.WithCancel(context.Background())
	doneA := make(chan struct{})
	go func() {
		defer close(doneA)
		post(ctxA) // fails once A gives up
	}()
	<-arrived // A's build is in the primary shard's phase 1

	type answer struct {
		status int
		body   []byte
		err    error
	}
	gotB := make(chan answer, 1)
	go func() {
		status, got, err := post(context.Background())
		gotB <- answer{status, got, err}
	}()
	for {
		if _, hits, _ := coord.cohorts.stats(); hits == 1 {
			break // B joined A's build
		}
		time.Sleep(time.Millisecond)
	}
	cancelA()
	<-doneA
	close(release)

	b := <-gotB
	if b.err != nil || b.status != http.StatusOK {
		t.Fatalf("joined request after the builder cancelled: status %d, err %v: %s", b.status, b.err, b.body)
	}
	if !bytes.Equal(b.body, want) {
		t.Fatalf("joined request not byte-identical:\n got %s\nwant %s", b.body, want)
	}
	if got := coord.shardErrors.Load(); got != 0 {
		t.Fatalf("shard_errors = %d after a client cancellation, want 0", got)
	}
}

// TestCoordinatorStatsAggregation: /stats carries the fleet counters and
// one entry per shard with that shard's own stats embedded.
func TestCoordinatorStatsAggregation(t *testing.T) {
	objs, idx, wire := coordFixture(t)
	shardTS := buildShardServers(t, objs, idx.FrozenCorpus(), 2)
	_, coordTS := newCoordinatorTS(t, shardTS, CoordinatorConfig{})

	q := wire
	q.Strategy = "exact"
	if resp, body := postJSON(t, coordTS, "/maxbrstknn", q); resp.StatusCode != http.StatusOK {
		t.Fatalf("query failed: %d: %s", resp.StatusCode, body)
	}

	resp, body := getBody(t, coordTS, "/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/stats: status %d: %s", resp.StatusCode, body)
	}
	var st StatsPayload
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("/stats not decodable: %v", err)
	}
	if st.Shards != 2 {
		t.Fatalf("topology wrong: %+v", st)
	}
	if st.ServedQueries != 1 {
		t.Fatalf("served_queries = %d, want 1", st.ServedQueries)
	}
	if st.Phase1.Wave1Visited <= 0 || st.Phase1.Wave2Visited <= 0 {
		t.Fatalf("phase-1 visit counters missing: %+v", st.Phase1)
	}
	if st.Scatter.Assigned != int64(len(wire.Locations)) {
		t.Fatalf("scatter assigned = %d, want %d", st.Scatter.Assigned, len(wire.Locations))
	}
	if len(st.PerShard) != 2 {
		t.Fatalf("per_shard has %d entries, want 2", len(st.PerShard))
	}
	for i, ps := range st.PerShard {
		if ps.Error != "" || ps.Stats == nil {
			t.Fatalf("shard %d stats probe failed: %+v", i, ps)
		}
		if ps.Calls <= 0 {
			t.Fatalf("shard %d has no recorded calls", i)
		}
		if ps.Stats.Objects != len(objs)/2 {
			t.Fatalf("shard %d reports %d objects, want %d", i, ps.Stats.Objects, len(objs)/2)
		}
	}
}

// TestCoordinatorAndShardRejections pins the deliberate 400/501 walls:
// strategies and endpoints that cannot be answered correctly in a
// sharded deployment, and queries no index could answer, fail at the
// coordinator with an explanation — before any shard is called.
func TestCoordinatorAndShardRejections(t *testing.T) {
	objs, idx, wire := coordFixture(t)
	shardTS := buildShardServers(t, objs, idx.FrozenCorpus(), 2)
	coord, coordTS := newCoordinatorTS(t, shardTS, CoordinatorConfig{})

	calls := func() []int64 {
		out := []int64{coord.shardErrors.Load()}
		for _, sh := range coord.shards {
			out = append(out, sh.(*httpShard).calls.Load())
		}
		return out
	}
	before := calls()
	for _, c := range []struct {
		path, label string
		edit        func(*QueryRequest)
	}{
		{"/maxbrstknn", "user-indexed", func(q *QueryRequest) { q.Strategy = "user-indexed" }},
		{"/topl", "exhaustive", func(q *QueryRequest) { q.Strategy = "exhaustive" }},
		{"/maxbrstknn", "k=0", func(q *QueryRequest) { q.K = 0 }},
		{"/multiple", "k=-1", func(q *QueryRequest) { q.K = -1 }},
		{"/maxbrstknn", "no users", func(q *QueryRequest) { q.Users = nil }},
		{"/topl", "no locations", func(q *QueryRequest) { q.Locations = nil }},
		{"/maxbrstknn", "unknown strategy", func(q *QueryRequest) { q.Strategy = "quantum" }},
	} {
		q := wire
		c.edit(&q)
		resp, body := postJSON(t, coordTS, c.path, q)
		if resp.StatusCode != http.StatusBadRequest || strings.Contains(string(body), "shard") {
			t.Fatalf("%s %s: status %d, want a 400 naming no shard: %s", c.path, c.label, resp.StatusCode, body)
		}
	}
	if after := calls(); !reflect.DeepEqual(after, before) {
		t.Fatalf("rejected requests reached the shards: shard_errors and per-shard calls %v -> %v", before, after)
	}
	if resp, body := postJSON(t, coordTS, "/add", AddRequest{X: 1, Y: 1, Keywords: []string{"w1"}}); resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("coordinator /add: status %d, want 501: %s", resp.StatusCode, body)
	}

	// Shards refuse what only the coordinator can answer, and mutations.
	q := wire
	if resp, body := postJSON(t, shardTS[0], "/maxbrstknn", q); resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("shard /maxbrstknn: status %d, want 501: %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, shardTS[0], "/delete", DeleteRequest{ID: 0}); resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("shard /delete: status %d, want 501: %s", resp.StatusCode, body)
	}

	// A shard's healthz reports its topology position.
	resp, body := getBody(t, shardTS[1], "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shard /healthz: status %d", resp.StatusCode)
	}
	var h struct {
		Shard  int `json:"shard"`
		Shards int `json:"shards"`
	}
	if err := json.Unmarshal(body, &h); err != nil || h.Shard != 1 || h.Shards != 2 {
		t.Fatalf("shard healthz topology wrong: %s (err %v)", body, err)
	}
}

func getBody(t testing.TB, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

// TestTopKRejectsNonPositiveKEverywhere: the three servers agree on k. A
// k below 1 is a 400 from the single server, from a shard and from the
// coordinator (which used to size its merge buffer from k before looking
// at it, and died on a negative one); k = 1 is answered by all three.
func TestTopKRejectsNonPositiveKEverywhere(t *testing.T) {
	objs, idx, _ := coordFixture(t)
	single := httptest.NewServer(New(idx, Config{}).Handler())
	defer single.Close()
	shardTS := buildShardServers(t, objs, idx.FrozenCorpus(), 2)
	_, coordTS := newCoordinatorTS(t, shardTS, CoordinatorConfig{})
	servers := []struct {
		name string
		ts   *httptest.Server
	}{{"server.New", single}, {"NewShard", shardTS[0]}, {"NewCoordinator", coordTS}}

	for _, c := range []struct{ k, status int }{
		{-1, http.StatusBadRequest}, {0, http.StatusBadRequest}, {1, http.StatusOK},
	} {
		for _, srv := range servers {
			resp, body := postJSON(t, srv.ts, "/topk", TopKRequest{X: 5, Y: 5, Keywords: []string{"w1"}, K: c.k})
			if resp.StatusCode != c.status {
				t.Errorf("%s /topk k=%d: status %d, want %d: %s", srv.name, c.k, resp.StatusCode, c.status, body)
			}
		}
	}
}

// TestBadCoordinatesAre400: a coordinate above 1e150 in magnitude, or one
// past float64's range (JSON has no NaN or Inf), is a 400 from the single
// server, a shard and the coordinator on every endpoint that takes a point.
func TestBadCoordinatesAre400(t *testing.T) {
	objs, idx, wire := coordFixture(t)
	single := httptest.NewServer(New(idx, Config{}).Handler())
	defer single.Close()
	shardTS := buildShardServers(t, objs, idx.FrozenCorpus(), 2)
	coord, coordTS := newCoordinatorTS(t, shardTS, CoordinatorConfig{})
	user, loc := wire, wire
	user.Users = slices.Clone(wire.Users)
	user.Users[3].X = 1e300
	loc.Locations = slices.Clone(wire.Locations)
	loc.Locations[3][1] = -1e300
	all, queries := []*httptest.Server{single, shardTS[0], coordTS}, []*httptest.Server{single, coordTS}
	for _, c := range []struct {
		servers []*httptest.Server
		path    string
		body    any
	}{
		{all, "/topk", TopKRequest{X: 1e300, Y: 5, Keywords: []string{"w1"}, K: 3}},
		{all, "/topk", json.RawMessage(`{"x":5,"y":-1e999,"keywords":["w1"],"k":3}`)},
		{queries, "/maxbrstknn", user},
		{queries, "/topl", loc},
		{queries, "/multiple", loc},
		{[]*httptest.Server{single}, "/add", AddRequest{X: 5, Y: -1e300, Keywords: []string{"w1"}}},
		{[]*httptest.Server{single}, "/update", UpdateRequest{ID: 0, X: 1e300, Y: 5}},
	} {
		for i, ts := range c.servers {
			if resp, body := postJSON(t, ts, c.path, c.body); resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s on server %d: status %d, want 400: %s", c.path, i, resp.StatusCode, body)
			}
		}
	}
	if got := coord.shardErrors.Load(); got != 0 {
		t.Fatalf("shard_errors = %d after requests the shards refused, want 0", got)
	}
}
