package storage

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestPagerRoundTrip(t *testing.T) {
	p := NewPager()
	records := [][]byte{
		[]byte("hello"),
		{},
		bytes.Repeat([]byte{0xAB}, PageSize),     // exactly one page
		bytes.Repeat([]byte{0xCD}, PageSize+1),   // two pages
		bytes.Repeat([]byte{0xEF}, 3*PageSize+7), // four pages
	}
	ids := make([]PageID, len(records))
	for i, r := range records {
		ids[i] = p.WriteRecord(r)
	}
	for i, r := range records {
		got, err := p.ReadRecord(ids[i])
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, r) {
			t.Fatalf("record %d: round-trip mismatch (len %d vs %d)", i, len(got), len(r))
		}
	}
}

// TestPagerReadRecordShares pins the zero-copy handover and read of a
// memory-resident record and the fact that makes them safe: WriteRecord
// keeps the caller's own bytes, which the caller never writes again, and
// serves them to every reader; a record's bytes never change after it is
// written — not even when it is reclaimed and its slot is rewritten.
func TestPagerReadRecordShares(t *testing.T) {
	p := NewPager()
	src := []byte("hello")
	id := p.WriteRecord(src)
	a, err := p.ReadRecord(id)
	if err != nil || string(a) != "hello" {
		t.Fatalf("record = %q, %v; want the bytes as written", a, err)
	}
	if &a[0] != &src[0] || cap(a) != len(src) {
		t.Fatal("the store does not serve the caller's own bytes, cut to their length")
	}
	if b, _ := p.ReadRecord(id); &b[0] != &a[0] {
		t.Fatal("two reads of a memory-resident record returned different copies")
	}
	if allocs := testing.AllocsPerRun(100, func() { p.ReadRecord(id) }); allocs != 0 {
		t.Fatalf("ReadRecord of a memory-resident record allocates %.0f times", allocs)
	}
	// A write and a reclaim publish one pager state each; a copy of the
	// record would be a third allocation.
	if allocs := testing.AllocsPerRun(100, func() { p.Reclaim([]PageID{p.WriteRecord(src)}) }); allocs > 2 {
		t.Fatalf("WriteRecord and Reclaim of one slot allocate %.0f times; the record was copied", allocs)
	}
	if empty := p.WriteRecord(nil); !p.Resident(empty) {
		t.Fatal("an empty record handed over as nil is not memory-resident")
	}
	p.Reclaim([]PageID{id})
	if reused := p.WriteRecord([]byte("world")); reused != id {
		t.Fatalf("write after reclaim landed at %d, want the freed slot %d", reused, id)
	}
	if string(a) != "hello" {
		t.Fatalf("a reader's record changed to %q when its slot was reused", a)
	}
}

func TestPagerRecordPages(t *testing.T) {
	p := NewPager()
	tests := []struct {
		size      int
		wantPages int
	}{
		{0, 1}, {1, 1}, {PageSize, 1}, {PageSize + 1, 2}, {2 * PageSize, 2}, {2*PageSize + 1, 3},
	}
	for _, tt := range tests {
		id := p.WriteRecord(make([]byte, tt.size))
		if got := p.RecordPages(id); got != tt.wantPages {
			t.Errorf("size %d: RecordPages = %d, want %d", tt.size, got, tt.wantPages)
		}
	}
	if got := p.RecordPages(PageID(9999)); got != 0 {
		t.Errorf("unknown record pages = %d, want 0", got)
	}
}

func TestPagerReadUnknown(t *testing.T) {
	p := NewPager()
	if _, err := p.ReadRecord(5); err == nil {
		t.Error("reading unknown record should error")
	}
	// reading a middle page of a multi-page record is also unknown
	id := p.WriteRecord(make([]byte, 2*PageSize))
	if _, err := p.ReadRecord(id + 1); err == nil {
		t.Error("reading interior page should error")
	}
}

func TestPagerNumPages(t *testing.T) {
	p := NewPager()
	p.WriteRecord(make([]byte, 10))
	p.WriteRecord(make([]byte, PageSize+1))
	if got := p.NumPages(); got != 3 {
		t.Errorf("NumPages = %d, want 3", got)
	}
}

func TestEncodingRoundTrip(t *testing.T) {
	var buf []byte
	buf = AppendUvarint(buf, 0)
	buf = AppendUvarint(buf, 127)
	buf = AppendUvarint(buf, 1<<40)
	buf = AppendFloat64(buf, 3.14159)
	buf = AppendFloat64(buf, -0.0)
	buf = AppendFloat64(buf, math.MaxFloat64)

	d := NewDecoder(buf)
	if got := d.Uvarint(); got != 0 {
		t.Errorf("uvarint = %d, want 0", got)
	}
	if got := d.Uvarint(); got != 127 {
		t.Errorf("uvarint = %d, want 127", got)
	}
	if got := d.Uvarint(); got != 1<<40 {
		t.Errorf("uvarint = %d", got)
	}
	if got := d.Float64(); got != 3.14159 {
		t.Errorf("float = %v", got)
	}
	if got := d.Float64(); got != 0 {
		t.Errorf("float = %v, want -0", got)
	}
	if got := d.Float64(); got != math.MaxFloat64 {
		t.Errorf("float = %v", got)
	}
	if d.Err() != nil {
		t.Errorf("unexpected error: %v", d.Err())
	}
	if d.Remaining() != 0 {
		t.Errorf("remaining = %d, want 0", d.Remaining())
	}
}

func TestDecoderErrors(t *testing.T) {
	d := NewDecoder([]byte{0x80}) // truncated varint
	d.Uvarint()
	if d.Err() == nil {
		t.Error("truncated varint should set error")
	}
	// after an error, further reads return zero values and keep the error
	if got := d.Float64(); got != 0 {
		t.Errorf("post-error read = %v, want 0", got)
	}

	d2 := NewDecoder([]byte{1, 2, 3})
	d2.Float64()
	if d2.Err() == nil {
		t.Error("truncated float should set error")
	}
}

func TestEncodingProperty(t *testing.T) {
	f := func(vals []uint64, floats []float64) bool {
		var buf []byte
		for _, v := range vals {
			if UvarintLen(v) != len(AppendUvarint(nil, v)) {
				return false
			}
			buf = AppendUvarint(buf, v)
		}
		for _, fl := range floats {
			buf = AppendFloat64(buf, fl)
		}
		d := NewDecoder(buf)
		for _, v := range vals {
			if d.Uvarint() != v {
				return false
			}
		}
		for _, fl := range floats {
			got := d.Float64()
			if got != fl && !(math.IsNaN(got) && math.IsNaN(fl)) {
				return false
			}
		}
		return d.Err() == nil && d.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIOCounter(t *testing.T) {
	var c IOCounter
	c.NodeVisit()
	c.NodeVisit()
	c.InvFileLoad(3)
	if c.NodeVisits() != 2 || c.InvBlocks() != 3 || c.Total() != 5 {
		t.Errorf("counter = %d/%d/%d", c.NodeVisits(), c.InvBlocks(), c.Total())
	}
	c.Reset()
	if c.Total() != 0 {
		t.Errorf("after reset total = %d", c.Total())
	}
}

// TestEpochPinsFloor: a reader may pin the floor's epoch but none below
// it, whose retired pages the writer may already be reusing, and the
// floor never passes the oldest live pin.
func TestEpochPinsFloor(t *testing.T) {
	p := NewEpochPins()
	if !p.TryPin(2) {
		t.Fatal("TryPin(2) refused at floor 0")
	}
	if got := p.AdvanceFloor(5); got != 2 {
		t.Fatalf("AdvanceFloor(5) with epoch 2 pinned = %d, want 2", got)
	}
	if p.TryPin(1) {
		t.Fatal("TryPin(floor−1) admitted an epoch below the floor")
	}
	if !p.TryPin(2) {
		t.Fatal("TryPin(floor) refused")
	}
	p.Unpin(2)
	if got := p.AdvanceFloor(5); got != 2 {
		t.Fatalf("AdvanceFloor(5) with epoch 2 still pinned once = %d, want 2", got)
	}
	p.Unpin(2)
	if got := p.AdvanceFloor(5); got != 5 || p.Floor() != 5 {
		t.Fatalf("AdvanceFloor(5) with no pins = %d (Floor %d), want 5", got, p.Floor())
	}
	if got := p.AdvanceFloor(3); got != 5 {
		t.Fatalf("AdvanceFloor(3) lowered the floor to %d", got)
	}
	if p.TryPin(4) || !p.TryPin(5) {
		t.Fatal("at floor 5, TryPin(4) must fail and TryPin(5) succeed")
	}
}
