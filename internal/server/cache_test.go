package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	maxbrstknn "repro"
)

// A capacity-bound eviction must never remove an entry whose build is
// still in flight: waiters joined to its ready channel would be orphaned
// while a later request for the same key silently starts a duplicate
// build, breaking the singleflight guarantee.
func TestSessionCacheInFlightNotEvicted(t *testing.T) {
	c := newLRUCache(1, func(*maxbrstknn.Session) {})
	started := make(chan struct{})
	release := make(chan struct{})
	var buildsA atomic.Int32
	buildA := func() (*maxbrstknn.Session, error) {
		if buildsA.Add(1) == 1 {
			close(started)
			<-release // hold the build in flight
		}
		return nil, nil
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, _, err := c.get("a", 0, buildA); err != nil {
			t.Error(err)
		}
	}()
	<-started

	// A different cohort misses while "a" is still building; capacity 1
	// forces an eviction decision, which must spare the in-flight entry.
	if _, _, err := c.get("b", 0, func() (*maxbrstknn.Session, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}

	// Joiners for "a" must find the in-flight entry, not rebuild it.
	const joiners = 4
	wg.Add(joiners)
	for i := 0; i < joiners; i++ {
		go func() {
			defer wg.Done()
			if _, _, err := c.get("a", 0, buildA); err != nil {
				t.Error(err)
			}
		}()
	}
	time.Sleep(10 * time.Millisecond) // let joiners reach the cache
	close(release)
	wg.Wait()
	if n := buildsA.Load(); n != 1 {
		t.Fatalf("key built %d times, want 1 (joiners must share the in-flight build)", n)
	}
}

// /stats on a server that has served nothing must report well-formed JSON
// with zero hit rates — a 0/0 division would emit NaN, which is not
// representable in JSON and would corrupt the response.
func TestStatsFreshServer(t *testing.T) {
	idx, _ := fixture(t)
	srv := New(idx, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	res, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/stats status %d, want 200", res.StatusCode)
	}
	var stats StatsPayload
	if err := json.NewDecoder(res.Body).Decode(&stats); err != nil {
		t.Fatalf("/stats body not valid JSON: %v", err)
	}
	if stats.DecodedCache.HitRate != 0 {
		t.Errorf("decoded_cache.hit_rate = %v on a fresh server, want 0", stats.DecodedCache.HitRate)
	}
	if stats.SessionCache.HitRate != 0 {
		t.Errorf("session_cache.hit_rate = %v on a fresh server, want 0", stats.SessionCache.HitRate)
	}
}

// A value leaves the cache — evicted, or dropped as of an older epoch —
// exactly once, and never while a get still holds it.
func TestSessionCacheLeavesAfterLastRelease(t *testing.T) {
	var left []string
	c := newLRUCache(1, func(v string) { left = append(left, v) })
	get := func(key string, epoch uint64) func() {
		t.Helper()
		_, release, err := c.get(key, epoch, func() (string, error) { return key, nil })
		if err != nil {
			t.Fatal(err)
		}
		return release
	}
	want := func(keys ...string) {
		t.Helper()
		if fmt.Sprint(left) != fmt.Sprint(keys) {
			t.Fatalf("left %v, want %v", left, keys)
		}
	}
	releaseA := get("a", 0)
	releaseA2 := get("a", 0)
	releaseB := get("b", 1) // evicts a, which two gets hold
	want()
	releaseA()
	want()
	releaseA2()
	want("a")
	c.dropBefore(2) // drops b, which a get holds
	if size, _, _ := c.stats(); size != 0 {
		t.Fatalf("size %d after dropBefore, want 0", size)
	}
	want("a")
	releaseB()
	want("a", "b")
}
