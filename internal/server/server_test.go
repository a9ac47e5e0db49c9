package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	maxbrstknn "repro"
)

// fixture builds a deterministic random index plus a wire query.
func fixture(t testing.TB) (*maxbrstknn.Index, QueryRequest) {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	words := []string{"a", "b", "c", "d", "e", "f"}
	b := maxbrstknn.NewBuilder()
	for i := 0; i < 120; i++ {
		b.AddObject(rng.Float64()*10, rng.Float64()*10,
			words[rng.Intn(len(words))], words[rng.Intn(len(words))])
	}
	idx, err := b.Build(maxbrstknn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	users := make([]UserSpec, 20)
	for i := range users {
		users[i] = UserSpec{
			X: rng.Float64() * 10, Y: rng.Float64() * 10,
			Keywords: []string{words[rng.Intn(len(words))]},
		}
	}
	return idx, QueryRequest{
		Users:       users,
		Locations:   [][2]float64{{2, 2}, {8, 8}, {5, 5}},
		Keywords:    words,
		MaxKeywords: 2,
		K:           3,
	}
}

func postJSON(t testing.TB, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
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

// TestRoundTripByteIdentical is the serving guarantee: for every strategy
// and every ParallelOptions setting, the HTTP response body equals the
// direct library call's Result encoded through the same wire path, byte
// for byte — also when no location attracts any user, where the
// user-indexed answer still carries its pruning statistics.
func TestRoundTripByteIdentical(t *testing.T) {
	idx, wire := fixture(t)
	srv := New(idx, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	noWinner := wire
	noWinner.Locations = [][2]float64{{500, 500}, {-400, 900}}
	noWinner.Keywords = []string{"unheard-of"}
	strategies := []string{"exact", "approx", "exhaustive", "user-indexed"}
	parallels := []ParallelSpec{{}, {Workers: 2}, {Workers: 4, Groups: 8}}
	for qi, q := range []QueryRequest{wire, noWinner} {
		for _, strat := range strategies {
			for _, par := range parallels {
				q.Strategy, q.Parallel = strat, par
				req, err := q.ToRequest()
				if err != nil {
					t.Fatal(err)
				}
				direct, err := idx.MaxBRSTkNN(req)
				if err != nil {
					t.Fatal(err)
				}
				if qi == 1 && (direct.Count() != 0 || strat == "user-indexed" && direct.Stats.TotalUsers == 0) {
					t.Fatalf("fixture broken: want no winner (with pruning statistics for user-indexed), got %+v", direct)
				}
				want, err := ResultJSON(direct)
				if err != nil {
					t.Fatal(err)
				}
				resp, got := postJSON(t, ts, "/maxbrstknn", q)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("query %d %s/%+v: status %d: %s", qi, strat, par, resp.StatusCode, got)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("query %d %s/%+v: response not byte-identical:\n got %s\nwant %s", qi, strat, par, got, want)
				}
			}
		}
	}
}

func TestTopLAndMultipleRoundTrip(t *testing.T) {
	idx, wire := fixture(t)
	srv := New(idx, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req, err := wire.ToRequest()
	if err != nil {
		t.Fatal(err)
	}
	sess, err := idx.NewSession(req.Users, req.K)
	if err != nil {
		t.Fatal(err)
	}

	wire.L = 3
	directTopL, err := sess.RunTopL(req, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ResultsJSON(directTopL)
	if err != nil {
		t.Fatal(err)
	}
	resp, got := postJSON(t, ts, "/topl", wire)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("topl status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("topl not byte-identical:\n got %s\nwant %s", got, want)
	}

	wire.L, wire.M = 0, 2
	directMulti, err := sess.RunMultiple(req, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err = ResultsJSON(directMulti)
	if err != nil {
		t.Fatal(err)
	}
	resp, got = postJSON(t, ts, "/multiple", wire)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("multiple status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("multiple not byte-identical:\n got %s\nwant %s", got, want)
	}

	// Unsupported strategies are rejected up front — before the server
	// spends a session build on the doomed request.
	_, _, missesBefore := srv.cohorts.stats()
	wire.Strategy = "exhaustive"
	wire.L = 2
	wire.Users = append([]UserSpec{{X: 9, Y: 9}}, wire.Users...) // distinct cohort
	resp, got = postJSON(t, ts, "/topl", wire)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("topl with exhaustive: status %d body %s, want 400", resp.StatusCode, got)
	}
	if _, _, misses := srv.cohorts.stats(); misses != missesBefore {
		t.Errorf("rejected strategy still built a session (misses %d -> %d)", missesBefore, misses)
	}
}

func TestBodySizeLimit(t *testing.T) {
	idx, wire := fixture(t)
	srv := New(idx, Config{MaxBodyBytes: 256})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, _ := postJSON(t, ts, "/maxbrstknn", wire) // fixture body > 256 bytes
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized body: status %d, want 400", resp.StatusCode)
	}
}

func TestTopKRoundTrip(t *testing.T) {
	idx, _ := fixture(t)
	srv := New(idx, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	direct, err := idx.TopK(5, 5, []string{"a", "b"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := TopKJSON(direct)
	if err != nil {
		t.Fatal(err)
	}
	resp, got := postJSON(t, ts, "/topk", TopKRequest{X: 5, Y: 5, Keywords: []string{"a", "b"}, K: 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("topk not byte-identical:\n got %s\nwant %s", got, want)
	}
}

func TestServedFromLoadedIndexMatchesInMemory(t *testing.T) {
	idx, wire := fixture(t)
	path := filepath.Join(t.TempDir(), "served.mxbr")
	if err := idx.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := maxbrstknn.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()

	srv := New(loaded, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req, err := wire.ToRequest()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := idx.MaxBRSTkNN(req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ResultJSON(direct)
	if err != nil {
		t.Fatal(err)
	}
	resp, got := postJSON(t, ts, "/maxbrstknn", wire)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("loaded-index serving differs from in-memory library call:\n got %s\nwant %s", got, want)
	}
}

// TestTruncatedIndexFileIsServerError: when the file under a cold-loaded
// index is cut short, the failed reads are the server's fault — /topk and
// /maxbrstknn answer 500 naming the truncation, never a client's 400.
func TestTruncatedIndexFileIsServerError(t *testing.T) {
	idx, wire := fixture(t)
	path := filepath.Join(t.TempDir(), "served.mxbr")
	if err := idx.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := maxbrstknn.LoadWithOptions(path, maxbrstknn.LoadOptions{DecodedCacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(loaded, Config{}).Handler())
	defer ts.Close()

	for endpoint, body := range map[string]any{
		"/topk":       TopKRequest{X: 5, Y: 5, Keywords: []string{"a", "b"}, K: 4},
		"/maxbrstknn": wire,
	} {
		resp, got := postJSON(t, ts, endpoint, body)
		if resp.StatusCode != http.StatusInternalServerError || !bytes.Contains(got, []byte("truncated")) {
			t.Errorf("%s on a truncated index file: status %d %s, want 500 naming the truncation", endpoint, resp.StatusCode, got)
		}
	}
}

func TestSessionCacheHits(t *testing.T) {
	idx, wire := fixture(t)
	srv := New(idx, Config{SessionCapacity: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, ts, "/maxbrstknn", wire)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}
	size, hits, misses := srv.cohorts.stats()
	if size != 1 || misses != 1 || hits != 2 {
		t.Errorf("session cache size=%d hits=%d misses=%d, want 1/2/1", size, hits, misses)
	}

	// A different k is a different cohort.
	wire2 := wire
	wire2.K = wire.K + 1
	if resp, body := postJSON(t, ts, "/maxbrstknn", wire2); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if size, _, _ := srv.cohorts.stats(); size != 2 {
		t.Errorf("cache size = %d after second cohort, want 2", size)
	}
}

func TestSessionCacheEvicts(t *testing.T) {
	c := newLRUCache(2, func(*maxbrstknn.Session) {})
	build := func() (*maxbrstknn.Session, error) { return nil, nil }
	for _, key := range []string{"a", "b", "c", "b"} {
		if _, _, err := c.get(key, 0, build); err != nil {
			t.Fatal(err)
		}
	}
	size, hits, misses := c.stats()
	if size != 2 {
		t.Errorf("size = %d, want capacity 2", size)
	}
	if hits != 1 || misses != 3 {
		t.Errorf("hits=%d misses=%d, want 1/3", hits, misses)
	}
	// "a" was evicted by "c"; "b" survived via its recent hit.
	if _, ok := c.entries["a"]; ok {
		t.Error("oldest entry not evicted")
	}
	if _, ok := c.entries["b"]; !ok {
		t.Error("recently used entry evicted")
	}
}

func TestSessionCacheBuildErrorNotCached(t *testing.T) {
	c := newLRUCache(4, func(*maxbrstknn.Session) {})
	calls := 0
	build := func() (*maxbrstknn.Session, error) {
		calls++
		if calls == 1 {
			return nil, fmt.Errorf("transient")
		}
		return nil, nil
	}
	if _, _, err := c.get("k", 0, build); err == nil {
		t.Fatal("first build should fail")
	}
	if _, _, err := c.get("k", 0, build); err != nil {
		t.Fatalf("retry after failed build: %v", err)
	}
	if calls != 2 {
		t.Errorf("build calls = %d, want 2 (errors must not be cached)", calls)
	}
}

func TestConcurrentClientsShareOneServer(t *testing.T) {
	idx, wire := fixture(t)
	srv := New(idx, Config{MaxInFlight: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req, err := wire.ToRequest()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := idx.MaxBRSTkNN(req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ResultJSON(direct)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				resp, got := postJSON(t, ts, "/maxbrstknn", wire)
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("status %d: %s", resp.StatusCode, got)
					return
				}
				if !bytes.Equal(got, want) {
					errc <- fmt.Errorf("concurrent response diverged: %s", got)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if _, hits, misses := srv.cohorts.stats(); misses != 1 || hits != 47 {
		t.Errorf("hits=%d misses=%d, want 47/1 (one build shared by all)", hits, misses)
	}
}

func TestStatsAndHealthz(t *testing.T) {
	idx, wire := fixture(t)
	srv := New(idx, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if resp, body := postJSON(t, ts, "/maxbrstknn", wire); resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", resp.StatusCode, body)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status  string `json:"status"`
		Objects int    `json:"objects"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Objects != idx.NumObjects() {
		t.Errorf("healthz = %+v", health)
	}

	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsPayload
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Objects != idx.NumObjects() {
		t.Errorf("stats.Objects = %d, want %d", stats.Objects, idx.NumObjects())
	}
	if stats.SimulatedIO == 0 {
		t.Error("stats.SimulatedIO = 0 after a query")
	}
	if stats.ServedQueries != 1 {
		t.Errorf("stats.ServedQueries = %d, want 1", stats.ServedQueries)
	}
	if stats.SessionCache.Misses != 1 {
		t.Errorf("stats.SessionCache.Misses = %d, want 1", stats.SessionCache.Misses)
	}
}

func TestBadRequests(t *testing.T) {
	idx, wire := fixture(t)
	srv := New(idx, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Invalid JSON.
	resp, err := http.Post(ts.URL+"/maxbrstknn", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid JSON: status %d, want 400", resp.StatusCode)
	}

	// Unknown strategy.
	bad := wire
	bad.Strategy = "quantum"
	if resp, body := postJSON(t, ts, "/maxbrstknn", bad); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown strategy: status %d body %s, want 400", resp.StatusCode, body)
	}

	// No users.
	bad = wire
	bad.Users = nil
	if resp, body := postJSON(t, ts, "/maxbrstknn", bad); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("no users: status %d body %s, want 400", resp.StatusCode, body)
	}

	// A negative list length or placement count (0 is the default of 1).
	bad = wire
	bad.L = -3
	if resp, body := postJSON(t, ts, "/topl", bad); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("l = -3: status %d body %s, want 400", resp.StatusCode, body)
	}
	bad = wire
	bad.M = -2
	if resp, body := postJSON(t, ts, "/multiple", bad); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("m = -2: status %d body %s, want 400", resp.StatusCode, body)
	}

	// GET on a query endpoint.
	resp, err = http.Get(ts.URL + "/maxbrstknn")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /maxbrstknn: status %d, want 405", resp.StatusCode)
	}
}

// TestTopLEvaluatesAsRunTopL: a /topl request through the single server
// evaluates exactly the locations RunTopL's scan does — the shard skips
// by the request's l — rather than every candidate location.
func TestTopLEvaluatesAsRunTopL(t *testing.T) {
	_, idx, wire := coordFixture(t)
	wire.Strategy, wire.MaxKeywords = "exact", 0
	for _, l := range []int{1, 3, len(wire.Locations)} {
		srv := New(idx, Config{})
		ts := httptest.NewServer(srv.Handler())
		wire.L = l
		if resp, body := postJSON(t, ts, "/topl", wire); resp.StatusCode != http.StatusOK {
			t.Fatalf("l=%d: status %d: %s", l, resp.StatusCode, body)
		}
		ts.Close()

		req, err := wire.ToRequest()
		if err != nil {
			t.Fatal(err)
		}
		sess, err := idx.NewSession(req.Users, req.K)
		if err != nil {
			t.Fatal(err)
		}
		all := make([]int, len(req.Locations))
		for i := range all {
			all[i] = i
		}
		_, want, err := sess.Scatter(req, sess.Thresholds(), all, 0, l)
		sess.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := srv.scatEvaluated.Load(); got != int64(want.Evaluated) {
			t.Fatalf("l=%d: /topl evaluated %d locations, RunTopL's scan %d", l, got, want.Evaluated)
		}
		if l == 1 && want.Evaluated >= len(req.Locations) {
			t.Fatalf("fixture broken: l=1 skips nothing (%d of %d evaluated)", want.Evaluated, len(req.Locations))
		}
	}
}
