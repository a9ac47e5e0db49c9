package storage

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"testing"
)

// writeTestRecords fills a backend with a deterministic mix of record
// sizes (empty, sub-page, exactly one page, multi-page).
func writeTestRecords(t *testing.T, b Backend, n int, seed int64) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sizes := []int{0, 5, 100, PageSize - 1, PageSize, PageSize + 1, 3*PageSize + 7}
	records := make([][]byte, n)
	for i := range records {
		data := make([]byte, sizes[rng.Intn(len(sizes))])
		rng.Read(data)
		records[i] = data
		b.WriteRecord(data)
	}
	return records
}

// reopen writes b to an index file with root as its root record and opens
// it again; the pager is closed when the test ends.
func reopen(t testing.TB, b Backend, root []byte) (*Pager, PageID) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ix.bin")
	if err := WriteFile(path, b, root); err != nil {
		t.Fatal(err)
	}
	p, rootID, err := OpenPager(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p, rootID
}

// TestFilePagerMatchesPager checks the load-bearing persistence property:
// a pager opened from the file WriteFile wrote serves every live record
// of the source at its own address, with the same page count and bytes.
// An interior freed page comes back as a one-page empty record, trailing
// freed pages are dropped, and the root lands right after the last record.
func TestFilePagerMatchesPager(t *testing.T) {
	mem := NewPager()
	records := writeTestRecords(t, mem, 40, 11)
	ids := mem.Records()
	// Free two interior records and the last one.
	freed := []PageID{ids[3], ids[17], ids[len(ids)-1]}
	mem.Reclaim(freed)
	end := ids[len(ids)-1] // the trailing hole is dropped

	re, root := reopen(t, mem, []byte("root"))
	if root != end {
		t.Fatalf("root at page %d, want %d", root, end)
	}
	if re.NumPages() != int(end)+1 {
		t.Fatalf("NumPages: %d, want %d", re.NumPages(), end+1)
	}
	for i, id := range ids {
		if id == end {
			continue
		}
		if slices.Contains(freed, id) {
			// Each page of an interior hole comes back as a one-page
			// empty record.
			for j := range PageID(recordPageCount(len(records[i]))) {
				if got, err := re.ReadRecord(id + j); err != nil || len(got) != 0 {
					t.Fatalf("hole page %d: %d bytes, %v; want an empty record", id+j, len(got), err)
				}
			}
			continue
		}
		got, err := re.ReadRecord(id)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, records[i]) {
			t.Fatalf("record %d: content mismatch (len %d vs %d)", i, len(got), len(records[i]))
		}
		if a, b := mem.RecordPages(id), re.RecordPages(id); a != b {
			t.Fatalf("record %d: pages %d (memory) vs %d (file)", i, a, b)
		}
	}
	if got, err := re.ReadRecord(root); err != nil || string(got) != "root" {
		t.Fatalf("root record: %q, %v", got, err)
	}
	stats := re.ReadStats()
	if stats.Records < int64(len(records)-len(freed)) || stats.Pages == 0 {
		t.Fatalf("ReadStats after full scan: %+v", stats)
	}
}

// TestFilePagerWritesAndReclaim checks that records written after open are
// memory-resident, that a reclaimed file-resident record's slot is reused
// by a later write and then served from memory, and that neither kind of
// memory read counts as physical.
func TestFilePagerWritesAndReclaim(t *testing.T) {
	src := NewPager()
	src.WriteRecord([]byte("on disk"))
	src.WriteRecord(bytes.Repeat([]byte{0x11}, PageSize+1))
	re, root := reopen(t, src, nil)
	if root != 3 {
		t.Fatalf("root at page %d, want 3", root)
	}
	big := bytes.Repeat([]byte{0x5A}, PageSize+9)
	if id := re.WriteRecord(big); id != 4 {
		t.Fatalf("post-open record landed at %d, want the next page, 4", id)
	}
	re.Reclaim([]PageID{1})
	if _, err := re.ReadRecord(1); err == nil {
		t.Fatal("reclaimed record still readable")
	}
	small := []byte("reuses the freed file slot")
	if id := re.WriteRecord(small); id != 1 {
		t.Fatalf("write after reclaim landed at %d, want the freed slot 1", id)
	}
	before := re.ReadStats()
	for id, want := range map[PageID][]byte{1: small, 4: big} {
		if got, err := re.ReadRecord(id); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("record %d: %d bytes, %v", id, len(got), err)
		}
	}
	if after := re.ReadStats(); after != before {
		t.Fatalf("memory-resident reads counted as physical: %+v -> %+v", before, after)
	}
	if got, err := re.ReadRecord(0); err != nil || string(got) != "on disk" {
		t.Fatalf("file-resident record: %q, %v", got, err)
	}
	if after := re.ReadStats(); after.Records != before.Records+1 || after.Pages != before.Pages+1 {
		t.Fatalf("file read counted %+v -> %+v, want one record of one page", before, after)
	}
	if got := re.Records(); !slices.Equal(got, []PageID{0, 1, 3, 4}) || re.NumPages() != 6 {
		t.Fatalf("Records %v over %d pages", got, re.NumPages())
	}
}

// TestFilePagerConcurrentReads hammers one pager opened from a file (and a
// buffer pool over it) from many goroutines — run under -race, this is the
// concurrent-read-safety guarantee of the Backend contract.
func TestFilePagerConcurrentReads(t *testing.T) {
	src := NewPager()
	records := writeTestRecords(t, src, 30, 23)
	re, _ := reopen(t, src, nil)
	pool := NewBufferPool(re, 8)
	hammerBackend(t, re, pool, records)
}

// TestPagerConcurrentReads is the same guarantee for the in-memory pager:
// its doc promises concurrent readers once writing has stopped, and the
// parallel query engine relies on it.
func TestPagerConcurrentReads(t *testing.T) {
	p := NewPager()
	records := writeTestRecords(t, p, 30, 29)
	pool := NewBufferPool(p, 8)
	hammerBackend(t, p, pool, records)
}

func hammerBackend(t *testing.T, b Backend, pool *BufferPool, records [][]byte) {
	t.Helper()
	ids := b.Records()[:len(records)]
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				j := rng.Intn(len(ids))
				var got []byte
				var err error
				if rng.Intn(2) == 0 {
					got, err = b.ReadRecord(ids[j])
				} else {
					got, _, err = pool.Read(ids[j])
				}
				if err != nil {
					t.Errorf("read %d: %v", ids[j], err)
					return
				}
				if !bytes.Equal(got, records[j]) {
					t.Errorf("read %d: content mismatch", ids[j])
					return
				}
				b.RecordPages(ids[j])
				b.NumPages()
			}
		}(int64(g))
	}
	wg.Wait()
}
