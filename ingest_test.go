package maxbrstknn

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
)

// ingestWords is the keyword pool the ingest tests draw from; fresh
// per-mutation keywords are added on top to grow the vocabulary past the
// build-time fence.
var ingestWords = []string{"a", "b", "c", "d", "e", "f", "g", "h"}

// applyIngestScript drives a deterministic mix of AddObject /
// DeleteObject / UpdateObject against idx: fresh keywords, deletes of
// both build-time and ingested objects, updates that re-home an object
// under a new id. Returns the number of live objects it expects.
func applyIngestScript(t *testing.T, idx *Index, seed int64) int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var live []int
	for i := 0; i < idx.NumObjects(); i++ {
		live = append(live, i)
	}
	for i := 0; i < 80; i++ {
		switch {
		case i%5 == 3 && len(live) > 8: // delete a random live object
			j := rng.Intn(len(live))
			if err := idx.DeleteObject(live[j]); err != nil {
				t.Fatalf("delete %d: %v", live[j], err)
			}
			live = append(live[:j], live[j+1:]...)
		case i%7 == 5 && len(live) > 0: // update a random live object
			j := rng.Intn(len(live))
			nid, err := idx.UpdateObject(live[j], rng.Float64()*10, rng.Float64()*10,
				ingestWords[rng.Intn(len(ingestWords))], fmt.Sprintf("upd%d", i))
			if err != nil {
				t.Fatalf("update %d: %v", live[j], err)
			}
			live[j] = nid
		default:
			kws := []string{ingestWords[rng.Intn(len(ingestWords))]}
			if i%4 == 0 {
				kws = append(kws, fmt.Sprintf("ingest%d", i))
			}
			id, err := idx.AddObject(rng.Float64()*10, rng.Float64()*10, kws...)
			if err != nil {
				t.Fatalf("add: %v", err)
			}
			live = append(live, id)
		}
	}
	return len(live)
}

// TestIngestOracleBuiltAndLoaded mutates a built index through the full
// Add/Delete/Update surface and round-trips it through Save/Load: the
// deletions persist, the loaded index starts a fresh epoch counter, and
// after more mutations it still answers as the oracle does.
func TestIngestOracleBuiltAndLoaded(t *testing.T) {
	idx, req := stressInstance(t)
	wantLive := applyIngestScript(t, idx, 21)
	if got := idx.NumObjects(); got != wantLive {
		t.Fatalf("NumObjects = %d, script expects %d", got, wantLive)
	}
	path := filepath.Join(t.TempDir(), "ingested.mxbr")
	if err := idx.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if got := loaded.NumObjects(); got != wantLive {
		t.Fatalf("loaded NumObjects = %d, want %d (deletions must persist)", got, wantLive)
	}
	if loaded.Epoch() != 0 {
		t.Fatalf("loaded epoch = %d, want a fresh counter", loaded.Epoch())
	}
	if _, err := loaded.AddObject(4, 4, "a", "post-load"); err != nil {
		t.Fatal(err)
	}
	if err := loaded.DeleteObject(0); err != nil && !errors.Is(err, ErrNoSuchObject) {
		t.Fatal(err)
	}
	checkAgainstOracle(t, loaded, req)
}

// TestAddObjectAllOrNothing is the regression test for the dirty error
// path the RWMutex-era AddObject had: terms were added to the vocabulary
// before the insert, so a failed insert left the vocabulary mutated.
// Driving an insert into a backend whose file is closed must leave no
// trace: same snapshot pointer, same vocabulary size, same epoch.
func TestAddObjectAllOrNothing(t *testing.T) {
	idx, _ := stressInstance(t)
	path := filepath.Join(t.TempDir(), "ao.mxbr")
	if err := idx.Save(path); err != nil {
		t.Fatal(err)
	}
	// Caches off: the insert's first node read must hit the (closed) file.
	loaded, err := LoadWithOptions(path, LoadOptions{DecodedCacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Close(); err != nil {
		t.Fatal(err)
	}

	snapBefore := loaded.snap.Load()
	vocabBefore := loaded.wvocab.Size()
	objectsBefore := loaded.NumObjects()

	if _, err := loaded.AddObject(1, 1, "a", "never-seen-term"); err == nil {
		t.Fatal("AddObject against a closed backend should fail")
	}
	if loaded.snap.Load() != snapBefore {
		t.Error("failed AddObject published a snapshot")
	}
	if got := loaded.wvocab.Size(); got != vocabBefore {
		t.Errorf("failed AddObject left vocabulary at %d terms, want %d (rollback)", got, vocabBefore)
	}
	if got := loaded.NumObjects(); got != objectsBefore {
		t.Errorf("failed AddObject changed NumObjects: %d != %d", got, objectsBefore)
	}
	if loaded.Epoch() != 0 {
		t.Errorf("failed AddObject advanced the epoch to %d", loaded.Epoch())
	}

	// Same all-or-nothing contract for UpdateObject.
	if _, err := loaded.UpdateObject(0, 2, 2, "another-fresh-term"); err == nil {
		t.Fatal("UpdateObject against a closed backend should fail")
	}
	if got := loaded.wvocab.Size(); got != vocabBefore {
		t.Errorf("failed UpdateObject left vocabulary at %d terms, want %d", got, vocabBefore)
	}
	if loaded.snap.Load() != snapBefore {
		t.Error("failed UpdateObject published a snapshot")
	}
}

// TestIngestRaceStress shares one index between 16 goroutines running
// sustained inserts, deletes, one-shot queries across every strategy,
// and session builds — the `go test -race` workout of the lock-free
// reader path, on a built index and on a loaded one, whose file-resident
// reads race the writer's reclamation. After the storm settles, the
// index must still answer as the oracle does.
func TestIngestRaceStress(t *testing.T) {
	for _, kind := range storageKinds {
		t.Run(kind.name, func(t *testing.T) {
			idx, req := stressInstance(t)
			raceStress(t, kind.of(t, idx), req)
		})
	}
}

func raceStress(t *testing.T, idx *Index, req Request) {
	strategies := []Strategy{Exact, Approx, Exhaustive, UserIndexed}

	const goroutines = 16
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	var idMu sync.Mutex
	var added []int

	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < 6; i++ {
				switch g % 4 {
				case 0: // writer: insert, sometimes delete an earlier insert
					id, err := idx.AddObject(rng.Float64()*10, rng.Float64()*10,
						ingestWords[rng.Intn(len(ingestWords))], fmt.Sprintf("race%d-%d", g, i))
					if err != nil {
						errc <- fmt.Errorf("writer %d: %w", g, err)
						return
					}
					idMu.Lock()
					added = append(added, id)
					var victim = -1
					if i%2 == 1 && len(added) > 0 {
						j := rng.Intn(len(added))
						victim = added[j]
						added = append(added[:j], added[j+1:]...)
					}
					idMu.Unlock()
					if victim >= 0 {
						if err := idx.DeleteObject(victim); err != nil && !errors.Is(err, ErrNoSuchObject) {
							errc <- fmt.Errorf("deleter %d: %w", g, err)
							return
						}
					}
				case 1: // one-shot top-k reader
					res, err := idx.TopK(rng.Float64()*10, rng.Float64()*10, []string{"a", "b"}, 3)
					if err != nil {
						errc <- fmt.Errorf("topk %d: %w", g, err)
						return
					}
					if len(res) == 0 {
						errc <- fmt.Errorf("topk %d: empty result", g)
						return
					}
				case 2: // one-shot MaxBRSTkNN, rotating strategies
					r := req
					r.Strategy = strategies[(g+i)%len(strategies)]
					r.Parallel = ParallelOptions{Workers: 1 + g%3}
					if _, err := idx.MaxBRSTkNN(r); err != nil {
						errc <- fmt.Errorf("query %d %v: %w", g, r.Strategy, err)
						return
					}
				default: // session builder: pin a snapshot, run on it
					s, err := idx.NewSession(req.Users, req.K)
					if err != nil {
						errc <- fmt.Errorf("session %d: %w", g, err)
						return
					}
					r := req
					r.Strategy = strategies[i%len(strategies)]
					_, err = s.Run(r)
					s.Close()
					if err != nil {
						errc <- fmt.Errorf("session run %d %v: %w", g, r.Strategy, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	// Every fourth goroutine is a writer publishing 6 inserts and 3
	// deletes, one epoch each. The retired counters prove nothing here:
	// they are a gauge of garbage not yet reclaimed, and read zero whenever
	// the last writer found no reader pinned below its epoch.
	const adds, deletes = goroutines / 4 * 6, goroutines / 4 * 3
	st := idx.IngestStats()
	if st.Epoch != adds+deletes || st.TotalObjects != 200+adds || st.LiveObjects != 200+adds-deletes {
		t.Fatalf("stress run published %+v, want %d inserts and %d deletes over 200 objects", st, adds, deletes)
	}
	if st.LiveObjects != idx.NumObjects() {
		t.Fatalf("ingest stats live %d != NumObjects %d", st.LiveObjects, idx.NumObjects())
	}
	checkAgainstOracle(t, idx, req)
}
