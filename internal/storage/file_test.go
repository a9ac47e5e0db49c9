package storage

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
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

// TestFilePagerConcurrentReads hammers one pager opened from a file with
// whole and ranged reads from many goroutines — run under -race, this is
// the concurrent-read-safety guarantee of the Backend contract.
func TestFilePagerConcurrentReads(t *testing.T) {
	src := NewPager()
	records := writeTestRecords(t, src, 30, 23)
	re, _ := reopen(t, src, nil)
	hammerBackend(t, re, records)
}

// TestPagerConcurrentReads is the same guarantee for the in-memory pager:
// its doc promises concurrent readers once writing has stopped, and the
// parallel query engine relies on it.
func TestPagerConcurrentReads(t *testing.T) {
	p := NewPager()
	records := writeTestRecords(t, p, 30, 29)
	hammerBackend(t, p, records)
}

func hammerBackend(t *testing.T, b Backend, records [][]byte) {
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
				want := records[j]
				var got []byte
				var err error
				if rng.Intn(2) == 0 {
					got, err = b.ReadRecord(ids[j])
				} else {
					off := rng.Intn(len(want) + 1)
					want = want[off : off+rng.Intn(len(want)-off+1)]
					got, err = b.ReadRecordAt(ids[j], make([]byte, len(want)), off)
				}
				if err != nil {
					t.Errorf("read %d: %v", ids[j], err)
					return
				}
				if !bytes.Equal(got, want) {
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

// TestReadRecordAt pins the ranged read: a range outside the record, or a
// freed or unknown id, is an error; a memory-resident record's range is its
// own bytes, with no copy and no allocation; a file-resident range is read
// into dst and counted as one record of exactly the pages it spans.
func TestReadRecordAt(t *testing.T) {
	src := NewPager()
	small := []byte("eleven byte")
	big := bytes.Repeat([]byte{0x11, 0x22, 0x33}, PageSize+5) // four pages
	src.WriteRecord(small)
	bigID := src.WriteRecord(big)
	re, _ := reopen(t, src, nil)
	memID := re.WriteRecord(big)
	freed := re.WriteRecord(small)
	re.Reclaim([]PageID{freed})

	for _, c := range []struct {
		id     PageID
		n, off int
		why    string
	}{
		{0, 1, len(small), "past the end"},
		{0, len(small) + 1, 0, "longer than the record"},
		{0, 1, -1, "a negative offset"},
		{memID, 1, len(big), "past a resident record's end"},
		{freed, 1, 0, "a freed record"},
		{99, 1, 0, "an unknown page"},
		{bigID + 1, 1, 0, "a continuation page"},
	} {
		if got, err := re.ReadRecordAt(c.id, make([]byte, c.n), c.off); err == nil {
			t.Errorf("%s: read %d bytes, want an error", c.why, len(got))
		}
	}

	// A resident range is the record's own bytes.
	rec, err := re.ReadRecord(memID)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 100)
	got, err := re.ReadRecordAt(memID, dst, PageSize-50)
	if err != nil || !bytes.Equal(got, big[PageSize-50:PageSize+50]) || &got[0] != &rec[PageSize-50] || cap(got) != len(got) {
		t.Fatalf("resident range: %d bytes, %v; want the record's own capped bytes", len(got), err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := re.ReadRecordAt(memID, dst, 7); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a resident ranged read allocates %.1f times, want 0", allocs)
	}

	// File-resident ranges: one record, and the pages each spans.
	for _, c := range []struct {
		off, n, pages int
	}{
		{0, 1, 1},
		{PageSize - 1, 1, 1},
		{PageSize - 1, 2, 2},            // crosses one page boundary
		{PageSize - 1, PageSize + 2, 3}, // crosses two
		{PageSize, PageSize, 1},
		{5, len(big) - 5, 4},
		{len(big), 0, 0},
	} {
		before := re.ReadStats()
		got, err := re.ReadRecordAt(bigID, make([]byte, c.n), c.off)
		if err != nil || !bytes.Equal(got, big[c.off:c.off+c.n]) {
			t.Fatalf("range %d+%d: %d bytes, %v", c.off, c.n, len(got), err)
		}
		if after := re.ReadStats(); after.Records != before.Records+1 || after.Pages != before.Pages+int64(c.pages) {
			t.Fatalf("range %d+%d counted %+v -> %+v, want one record of %d pages", c.off, c.n, before, after, c.pages)
		}
	}
}

// TestReadAfterTruncation: a file-resident record whose file was cut
// short under the open pager reads as ErrTruncated — the index file's
// fault, not the caller's — through ReadRecord and ReadRecordAt alike.
func TestReadAfterTruncation(t *testing.T) {
	src := NewPager()
	id := src.WriteRecord(bytes.Repeat([]byte{7}, 3*PageSize))
	path := filepath.Join(t.TempDir(), "ix.bin")
	if err := WriteFile(path, src, nil); err != nil {
		t.Fatal(err)
	}
	p, _, err := OpenPager(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := os.Truncate(path, PageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ReadRecord(id); !errors.Is(err, ErrTruncated) {
		t.Errorf("ReadRecord after truncation: %v, want ErrTruncated", err)
	}
	if _, err := p.ReadRecordAt(id, make([]byte, 10), 2*PageSize); !errors.Is(err, ErrTruncated) {
		t.Errorf("ReadRecordAt after truncation: %v, want ErrTruncated", err)
	}
}
