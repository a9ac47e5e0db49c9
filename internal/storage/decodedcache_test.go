package storage

import (
	"encoding/binary"
	"path/filepath"
	"sync"
	"testing"
)

func TestDecodedCacheNilIsNoOp(t *testing.T) {
	var c *DecodedCache
	if v, ok := c.Get(1); ok || v != nil {
		t.Fatalf("nil cache Get = %v, %v", v, ok)
	}
	c.Put(1, "x", 8)
	if s := c.Stats(); s != (DecodedCacheStats{}) {
		t.Fatalf("nil cache stats = %+v", s)
	}
	if NewDecodedCache(0, 4) != nil {
		t.Fatal("non-positive budget must return the nil cache")
	}
}

func TestDecodedCacheHitMissEvict(t *testing.T) {
	// One shard so the LRU order is fully observable.
	c := NewDecodedCache(100, 1)
	c.Put(1, "a", 40)
	c.Put(2, "b", 40)
	if _, ok := c.Get(1); !ok {
		t.Fatal("entry 1 missing")
	}
	// 1 is now most recent; inserting 60 bytes must evict 2 (LRU), not 1.
	c.Put(3, "c", 60)
	if _, ok := c.Get(2); ok {
		t.Fatal("entry 2 should have been evicted")
	}
	if _, ok := c.Get(1); !ok {
		t.Fatal("entry 1 (recently used, 40+60 = 100 fits the budget) should have survived")
	}
	s := c.Stats()
	if s.Bytes > s.CapBytes {
		t.Fatalf("resident %d bytes over the %d cap", s.Bytes, s.CapBytes)
	}
	if s.Evictions == 0 {
		t.Fatal("expected evictions to be counted")
	}
	if s.Hits == 0 || s.Misses == 0 {
		t.Fatalf("expected both hits and misses, got %+v", s)
	}
}

func TestDecodedCacheByteAccounting(t *testing.T) {
	c := NewDecodedCache(1<<20, 4)
	var want int64
	for i := 0; i < 100; i++ {
		c.Put(PageID(i), i, 100)
		want += 100
	}
	s := c.Stats()
	if s.Bytes != want || s.Entries != 100 {
		t.Fatalf("resident = %d bytes / %d entries, want %d / 100", s.Bytes, s.Entries, want)
	}
	// An entry larger than one shard's budget must be refused, not wedge
	// the shard by evicting everything.
	c.Put(1000, "huge", 1<<20)
	if _, ok := c.Get(1000); ok {
		t.Fatal("oversized entry must not be cached")
	}
}

// TestDecodedCacheStressBothBackends hammers one sharded cache above a
// BufferPool from 16 goroutines, over both the in-memory Pager and the
// disk FilePager — the aliasing contract (shared immutable values) and
// shard locking must hold under -race on either backend.
func TestDecodedCacheStressBothBackends(t *testing.T) {
	const records = 256

	backends := map[string]func(t *testing.T) Backend{
		"pager": func(t *testing.T) Backend {
			p := NewPager()
			writeStressRecords(p, records)
			return p
		},
		"filepager": func(t *testing.T) Backend {
			path := filepath.Join(t.TempDir(), "stress.idx")
			fp, err := CreateFilePager(path)
			if err != nil {
				t.Fatal(err)
			}
			writeStressRecords(fp, records)
			if err := fp.Finalize(0); err != nil {
				t.Fatal(err)
			}
			if err := fp.Close(); err != nil {
				t.Fatal(err)
			}
			reopened, err := OpenFilePager(path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { reopened.Close() })
			return reopened
		},
	}

	for name, open := range backends {
		t.Run(name, func(t *testing.T) {
			backend := open(t)
			pool := NewBufferPool(backend, 64)
			// A budget far below the working set forces constant eviction
			// alongside the hits.
			cache := NewDecodedCache(records*16, 8)
			ids := backend.Records()

			var wg sync.WaitGroup
			for g := 0; g < 16; g++ {
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					for i := 0; i < 2000; i++ {
						seed = seed*6364136223846793005 + 1442695040888963407
						id := ids[seed%uint64(len(ids))]
						var got uint64
						if v, ok := cache.Get(id); ok {
							got = v.(uint64)
						} else {
							data, _, err := pool.Read(id)
							if err != nil {
								t.Error(err)
								return
							}
							got = binary.LittleEndian.Uint64(data)
							cache.Put(id, got, 32)
						}
						if got != uint64(id)*7 {
							t.Errorf("record %d decoded to %d, want %d", id, got, uint64(id)*7)
							return
						}
					}
				}(uint64(g + 1))
			}
			wg.Wait()

			s := cache.Stats()
			if s.Hits == 0 || s.Misses == 0 || s.Evictions == 0 {
				t.Fatalf("stress should exercise hits, misses and evictions: %+v", s)
			}
			if s.Bytes > s.CapBytes {
				t.Fatalf("resident %d bytes over the %d cap", s.Bytes, s.CapBytes)
			}
		})
	}
}

func writeStressRecords(b Backend, n int) {
	for i := 0; i < n; i++ {
		data := make([]byte, 8+i%32)
		binary.LittleEndian.PutUint64(data, uint64(b.NumPages())*7)
		b.WriteRecord(data)
	}
}

// TestDecodedCacheDeleteAndFitsBudget covers the writer-invalidation and
// cacheability-probe hooks the tree's insert and sums paths rely on.
func TestDecodedCacheDeleteAndFitsBudget(t *testing.T) {
	c := NewDecodedCache(100, 1)
	c.Put(1, "a", 40)
	c.Put(2, "b", 30)
	c.Delete(1)
	if _, ok := c.Get(1); ok {
		t.Fatal("deleted entry still served")
	}
	if _, ok := c.Get(2); !ok {
		t.Fatal("unrelated entry lost on delete")
	}
	if s := c.Stats(); s.Entries != 1 || s.Bytes != 30 {
		t.Fatalf("after delete: %+v", s)
	}
	c.Delete(99) // absent: no-op
	if !c.FitsBudget(100) || c.FitsBudget(101) {
		t.Fatalf("FitsBudget mis-sized against the 100-byte shard budget")
	}
	var nilCache *DecodedCache
	nilCache.Delete(1)
	if nilCache.FitsBudget(1) {
		t.Fatal("nil cache must fit nothing")
	}
}

func TestDecodedCacheShardRounding(t *testing.T) {
	for _, shards := range []int{0, 1, 3, 16, 17} {
		c := NewDecodedCache(1<<16, shards)
		if n := len(c.shards); n&(n-1) != 0 {
			t.Fatalf("shards=%d rounded to %d, not a power of two", shards, n)
		}
	}
}
