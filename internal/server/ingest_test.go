package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
)

func decodeMutation(t *testing.T, body []byte) MutationResponse {
	t.Helper()
	var m MutationResponse
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("mutation response %s: %v", body, err)
	}
	return m
}

// The mutation endpoints must publish epochs, make new objects queryable,
// map missing ids to 404, and report ingest state in /stats.
func TestMutationEndpoints(t *testing.T) {
	idx, _ := fixture(t)
	srv := New(idx, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts, "/add", AddRequest{X: 3.3, Y: 3.3, Keywords: []string{"zebra"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/add: status %d: %s", resp.StatusCode, body)
	}
	added := decodeMutation(t, body)
	if added.Epoch != 1 || added.LiveObjects != 121 {
		t.Fatalf("/add response %+v, want epoch 1 with 121 live objects", added)
	}

	// The fresh keyword must be reachable through a one-shot query.
	resp, body = postJSON(t, ts, "/topk", TopKRequest{X: 3.3, Y: 3.3, Keywords: []string{"zebra"}, K: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/topk: status %d: %s", resp.StatusCode, body)
	}
	var topk struct {
		Results []RankedPayload `json:"results"`
	}
	if err := json.Unmarshal(body, &topk); err != nil {
		t.Fatal(err)
	}
	if len(topk.Results) != 1 || topk.Results[0].ObjectID != added.ID {
		t.Fatalf("/topk for the added keyword returned %+v, want object %d", topk.Results, added.ID)
	}

	resp, body = postJSON(t, ts, "/update", UpdateRequest{ID: added.ID, X: 4.4, Y: 4.4, Keywords: []string{"zebra"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/update: status %d: %s", resp.StatusCode, body)
	}
	updated := decodeMutation(t, body)
	if updated.ID == added.ID || updated.Epoch != 2 || updated.LiveObjects != 121 {
		t.Fatalf("/update response %+v, want a fresh id at epoch 2 with 121 live objects", updated)
	}

	resp, body = postJSON(t, ts, "/delete", DeleteRequest{ID: updated.ID})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/delete: status %d: %s", resp.StatusCode, body)
	}
	if del := decodeMutation(t, body); del.Epoch != 3 || del.LiveObjects != 120 {
		t.Fatalf("/delete response %+v, want epoch 3 with 120 live objects", del)
	}

	// Dead or never-assigned ids are the client's mistake: 404.
	for _, id := range []int{added.ID, updated.ID, 99999} {
		if resp, body = postJSON(t, ts, "/delete", DeleteRequest{ID: id}); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("/delete id %d: status %d (%s), want 404", id, resp.StatusCode, body)
		}
		if resp, body = postJSON(t, ts, "/update", UpdateRequest{ID: id, X: 1, Y: 1}); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("/update id %d: status %d (%s), want 404", id, resp.StatusCode, body)
		}
	}

	resp, body = postJSON(t, ts, "/topk", TopKRequest{X: 3.3, Y: 3.3, Keywords: []string{"zebra"}, K: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatal("topk after delete failed")
	}
	if err := json.Unmarshal(body, &topk); err != nil {
		t.Fatal(err)
	}
	for _, r := range topk.Results {
		if r.ObjectID == added.ID || r.ObjectID == updated.ID {
			t.Fatalf("deleted object %d still served by /topk", r.ObjectID)
		}
	}

	res, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsPayload
	if err := json.NewDecoder(res.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if stats.Ingest.Epoch != 3 || stats.Ingest.LiveObjects != 120 || stats.Ingest.TotalObjects != 122 {
		t.Fatalf("/stats ingest %+v, want epoch 3, 120 live of 122 allocated", stats.Ingest)
	}
	// With no session pinning an old epoch, the writer reclaims every
	// retired record right after publishing, so the counters report zero
	// un-reclaimed garbage (they counted upward before page reuse existed).
	if stats.Ingest.RetiredRecords != 0 || stats.Ingest.RetiredPages != 0 {
		t.Fatalf("/stats ingest %+v, want retired counters reclaimed to zero", stats.Ingest)
	}
}

// A cached cohort pins its epoch's snapshot. Once a mutation publishes,
// no request can ask for that cohort again, so it must leave the cache and
// release its pin: otherwise the writer can reclaim nothing any later
// mutation retires.
func TestMutationReleasesCachedCohorts(t *testing.T) {
	idx, wire := fixture(t)
	srv := New(idx, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if resp, body := postJSON(t, ts, "/maxbrstknn", wire); resp.StatusCode != http.StatusOK {
		t.Fatalf("/maxbrstknn: status %d: %s", resp.StatusCode, body)
	}
	for i := 0; i < 200; i++ {
		x := float64(i%10) + 0.5
		if resp, body := postJSON(t, ts, "/add", AddRequest{X: x, Y: x, Keywords: []string{"zebra"}}); resp.StatusCode != http.StatusOK {
			t.Fatalf("/add %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	if size, _, _ := srv.cohorts.stats(); size != 0 {
		t.Errorf("%d cohorts of superseded epochs still cached", size)
	}
	if st := idx.IngestStats(); st.RetiredRecords != 0 || st.RetiredPages != 0 {
		t.Fatalf("ingest stats %+v, want every retired record reclaimed", st)
	}
}

// Queries racing mutations must all succeed: writers never block readers,
// and every reader sees some fully published epoch.
func TestConcurrentMutationsAndQueries(t *testing.T) {
	idx, wire := fixture(t)
	wire.Strategy = "exact"
	srv := New(idx, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const writers, readers, perG = 4, 8, 12
	var wg sync.WaitGroup
	errc := make(chan error, writers+readers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				resp, body := postJSON(t, ts, "/add",
					AddRequest{X: float64(g), Y: float64(i), Keywords: []string{fmt.Sprintf("w%d", g)}})
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("/add: status %d: %s", resp.StatusCode, body)
					return
				}
				m := decodeMutation(t, body)
				if i%3 == 2 {
					if resp, body := postJSON(t, ts, "/delete", DeleteRequest{ID: m.ID}); resp.StatusCode != http.StatusOK {
						errc <- fmt.Errorf("/delete: status %d: %s", resp.StatusCode, body)
						return
					}
				}
			}
		}(g)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				var resp *http.Response
				var body []byte
				if g%2 == 0 {
					resp, body = postJSON(t, ts, "/maxbrstknn", wire)
				} else {
					resp, body = postJSON(t, ts, "/topk", TopKRequest{X: 5, Y: 5, Keywords: []string{"a", "b"}, K: 3})
				}
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("query: status %d: %s", resp.StatusCode, body)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	st := idx.IngestStats()
	if st.Epoch == 0 || st.LiveObjects != 120+writers*perG-writers*(perG/3) {
		t.Fatalf("final ingest state %+v", st)
	}
}

// TestMutationRefreshesCohort: a cohort cached on the single server never
// serves thresholds from before a mutation. After /add and /update move
// its thresholds, /maxbrstknn answers exactly what a fresh library session
// at the new epoch answers, and the cohort cache counts one miss per
// epoch.
func TestMutationRefreshesCohort(t *testing.T) {
	idx, wire := fixture(t)
	wire.Strategy = "exact"
	srv := New(idx, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	req, err := wire.ToRequest()
	if err != nil {
		t.Fatal(err)
	}

	// queryTwice checks the served answer (a miss, then a hit) against a
	// fresh library session and returns that session's thresholds.
	queryTwice := func(label string) []float64 {
		t.Helper()
		sess, err := idx.NewSession(req.Users, req.K)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		direct, err := sess.Run(req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ResultJSON(direct)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			resp, got := postJSON(t, ts, "/maxbrstknn", wire)
			if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
				t.Fatalf("%s: status %d, not the fresh session's answer:\n got %s\nwant %s", label, resp.StatusCode, got, want)
			}
		}
		return sess.Thresholds()
	}

	// An object at user 0's position with user 0's keywords enters that
	// user's top-k and raises its k-th best score.
	u := wire.Users[0]
	th0 := queryTwice("epoch 0")
	resp, body := postJSON(t, ts, "/add", AddRequest{X: u.X, Y: u.Y, Keywords: u.Keywords})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/add: status %d: %s", resp.StatusCode, body)
	}
	th1 := queryTwice("after /add")
	resp, body = postJSON(t, ts, "/update", UpdateRequest{ID: decodeMutation(t, body).ID, X: 9.9, Y: 0.1, Keywords: []string{"zebra"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/update: status %d: %s", resp.StatusCode, body)
	}
	th2 := queryTwice("after /update")
	if reflect.DeepEqual(th0, th1) || reflect.DeepEqual(th1, th2) {
		t.Fatalf("fixture broken: the mutations did not move the thresholds (%v, %v, %v)", th0, th1, th2)
	}

	res, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var stats StatsPayload
	if err := json.NewDecoder(res.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if c := stats.SessionCache; c.Misses != 3 || c.Hits != 3 {
		t.Fatalf("session_cache %+v, want one miss and one hit per epoch (3/3)", c)
	}
}
