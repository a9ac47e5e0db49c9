package maxbrstknn

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
)

// reclaimFixture builds a small in-memory index with a few keywords.
func reclaimFixture(t *testing.T) *Index {
	t.Helper()
	b := NewBuilder()
	words := []string{"sushi", "ramen", "taco", "kebab"}
	for i := 0; i < 40; i++ {
		b.AddObject(float64(i%8), float64(i/8), words[i%len(words)], words[(i+1)%len(words)])
	}
	idx, err := b.Build(Options{})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// reclaimRequest is a MaxBRSTkNN request over reclaimFixture's keywords.
var reclaimRequest = Request{
	Users:       []UserSpec{{X: 1, Y: 1, Keywords: []string{"sushi"}}, {X: 5, Y: 2, Keywords: []string{"taco", "kebab"}}, {X: 7, Y: 4, Keywords: []string{"ramen"}}},
	Locations:   [][2]float64{{2, 2}, {6, 3}, {3.3, 4.4}},
	Keywords:    []string{"sushi", "ramen", "taco", "kebab"},
	MaxKeywords: 2,
	K:           3,
}

// reloaded saves idx and loads it back cold, with no decoded cache, so
// every read goes to the record store.
func reloaded(t *testing.T, idx *Index) *Index {
	return reloadedWith(t, idx, LoadOptions{DecodedCacheBytes: -1})
}

// reloadedWith saves idx and loads it back with opts.
func reloadedWith(t *testing.T, idx *Index, opts LoadOptions) *Index {
	t.Helper()
	path := filepath.Join(t.TempDir(), "reloaded.mxbr")
	if err := idx.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadWithOptions(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { loaded.Close() })
	return loaded
}

// storageKinds are the ways an index holds its records: built in memory
// (the decoded cache's directories index the pager's own bytes), and
// file-resident in a loaded index, read cold or under a decoded cache
// whose directories are detached from their records and read their runs
// by PageID — a node or directory left behind after its PageID was reused
// would surface as a wrong answer.
var storageKinds = []struct {
	name string
	of   func(*testing.T, *Index) *Index
}{
	{"built", func(_ *testing.T, idx *Index) *Index { return idx }},
	{"loaded", reloaded},
	{"loaded-decoded", func(t *testing.T, idx *Index) *Index {
		return reloadedWith(t, idx, LoadOptions{DecodedCacheBytes: 1 << 20})
	}},
}

// A long add/delete cycle must not grow the page store or the retired
// counters without bound: with no reader pinning an old epoch, every
// mutation's retired records are reclaimed right after it publishes and
// their pages reused by the next one.
func TestReclaimBoundsStorageUnderChurn(t *testing.T) {
	for _, kind := range storageKinds {
		t.Run(kind.name, func(t *testing.T) {
			idx := kind.of(t, reclaimFixture(t))
			// Warm up past the initial growth (vocabulary, first splits).
			for i := 0; i < 20; i++ {
				id, err := idx.AddObject(3.3, 4.4, "sushi", "taco")
				if err != nil {
					t.Fatal(err)
				}
				if err := idx.DeleteObject(id); err != nil {
					t.Fatal(err)
				}
			}
			plateau := idx.snap.Load().tree.DiskPages()
			for i := 0; i < 300; i++ {
				id, err := idx.AddObject(3.3, 4.4, "sushi", "taco")
				if err != nil {
					t.Fatal(err)
				}
				if err := idx.DeleteObject(id); err != nil {
					t.Fatal(err)
				}
			}
			if got := idx.snap.Load().tree.DiskPages(); got > plateau+8 {
				t.Errorf("pager grew from %d to %d pages over a steady add/delete cycle; reclamation is not reusing pages", plateau, got)
			}
			st := idx.IngestStats()
			if st.RetiredRecords != 0 || st.RetiredPages != 0 {
				t.Errorf("retired counters %d records / %d pages after churn, want 0/0 (all reclaimed)", st.RetiredRecords, st.RetiredPages)
			}
			checkAgainstOracle(t, idx, reclaimRequest)
		})
	}
}

// A live session pins its epoch: pages it references must survive until
// the session closes, and be reclaimed by the next publish after that.
func TestReclaimWaitsForSessionPins(t *testing.T) {
	for _, kind := range storageKinds {
		t.Run(kind.name, func(t *testing.T) {
			idx := kind.of(t, reclaimFixture(t))
			users := []UserSpec{{X: 1, Y: 1, Keywords: []string{"sushi"}}, {X: 5, Y: 2, Keywords: []string{"taco"}}}
			s, err := idx.NewSession(users, 3)
			if err != nil {
				t.Fatal(err)
			}
			before, err := s.Phase1(nil, ParallelOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				if err := idx.DeleteObject(i); err != nil {
					t.Fatal(err)
				}
			}
			if st := idx.IngestStats(); st.RetiredRecords == 0 {
				t.Fatal("retired counters zero while a session pins the pre-mutation epoch; reclamation ran too early")
			}
			// The pinned session must still read its epoch intact.
			after, err := s.Phase1(nil, ParallelOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(before, after) {
				t.Fatal("session answers drifted while mutations ran; its pinned epoch was disturbed")
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Phase1(nil, ParallelOptions{}); err == nil {
				t.Fatal("Phase1 after Close succeeded, want ErrSessionClosed")
			}
			// The next publish advances the floor past the released pin and
			// reclaims everything.
			if _, err := idx.AddObject(2, 2, "ramen"); err != nil {
				t.Fatal(err)
			}
			if st := idx.IngestStats(); st.RetiredRecords != 0 || st.RetiredPages != 0 {
				t.Errorf("retired counters %d records / %d pages after session close + publish, want 0/0", st.RetiredRecords, st.RetiredPages)
			}
			// The session's second Phase1 cached records the deletes had
			// retired, and the publish above freed their pages. Each delete
			// below writes new records at those addresses, and the query
			// after it reads them: a decoded node or directory the
			// reclamation left cached would answer for them.
			for i := 10; i < 14; i++ {
				if err := idx.DeleteObject(i); err != nil {
					t.Fatal(err)
				}
				checkAgainstOracle(t, idx, reclaimRequest)
			}
		})
	}
}

// Saving an index whose pager has reclaimed holes must still produce a
// loadable file with every live record at its original address.
func TestSaveAfterReclaimRoundTrips(t *testing.T) {
	idx := reclaimFixture(t)
	var added []int
	for i := 0; i < 12; i++ {
		id, err := idx.AddObject(float64(i), 1.5, "kebab", fmt.Sprintf("hole%d", i))
		if err != nil {
			t.Fatal(err)
		}
		added = append(added, id)
	}
	// Deleting the freshly added objects retires (and, with no pins,
	// immediately reclaims) their records, leaving free holes behind.
	for _, id := range added {
		if err := idx.DeleteObject(id); err != nil {
			t.Fatal(err)
		}
	}
	// Confirm the scenario actually produced interior holes — otherwise
	// this test would silently stop covering Save's gap padding.
	backend := idx.snap.Load().tree.Backend()
	records := backend.Records()
	holes := false
	next := int64(0)
	for _, id := range records {
		if int64(id) > next {
			holes = true
			break
		}
		pages := backend.RecordPages(id)
		next = int64(id) + int64(pages)
	}
	if !holes {
		t.Fatal("fixture produced no pager holes; adjust the churn so Save's gap padding stays covered")
	}
	path := filepath.Join(t.TempDir(), "holes.mxbr")
	if err := idx.Save(path); err != nil {
		t.Fatalf("save with reclaimed holes: %v", err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	defer loaded.Close()
	for _, u := range []struct{ x, y float64 }{{0, 0}, {3, 2}, {7, 4}} {
		want, err := idx.TopK(u.x, u.y, []string{"sushi", "taco"}, 5)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.TopK(u.x, u.y, []string{"sushi", "taco"}, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("TopK at (%v,%v) differs after save/load with holes:\n got %v\nwant %v", u.x, u.y, got, want)
		}
	}
}
