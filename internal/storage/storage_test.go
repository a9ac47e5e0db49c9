package storage

import (
	"bytes"
	"math"
	"math/rand"
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

func TestBufferPoolHitMiss(t *testing.T) {
	p := NewPager()
	id1 := p.WriteRecord([]byte("one"))
	id2 := p.WriteRecord([]byte("two"))

	b := NewBufferPool(p, 8)
	if _, hit, err := b.Read(id1); err != nil || hit {
		t.Fatalf("first read: hit=%v err=%v", hit, err)
	}
	if data, hit, err := b.Read(id1); err != nil || !hit || string(data) != "one" {
		t.Fatalf("second read: hit=%v data=%q err=%v", hit, data, err)
	}
	if _, hit, _ := b.Read(id2); hit {
		t.Fatal("different record should miss")
	}
	hits, misses := b.Stats()
	if hits != 1 || misses != 2 {
		t.Errorf("stats = %d/%d, want 1/2", hits, misses)
	}
}

func TestBufferPoolEviction(t *testing.T) {
	p := NewPager()
	var ids []PageID
	for i := 0; i < 4; i++ {
		ids = append(ids, p.WriteRecord([]byte{byte(i)}))
	}
	b := NewBufferPool(p, 2)
	b.Read(ids[0])
	b.Read(ids[1])
	b.Read(ids[0]) // refresh 0, so 1 is LRU
	b.Read(ids[2]) // evicts 1
	if _, hit, _ := b.Read(ids[0]); !hit {
		t.Error("0 should still be cached")
	}
	if _, hit, _ := b.Read(ids[1]); hit {
		t.Error("1 should have been evicted")
	}
}

func TestBufferPoolZeroCapacity(t *testing.T) {
	p := NewPager()
	id := p.WriteRecord([]byte("x"))
	b := NewBufferPool(p, 0)
	b.Read(id)
	if _, hit, _ := b.Read(id); hit {
		t.Error("zero-capacity pool must never hit")
	}
}

func TestBufferPoolReadError(t *testing.T) {
	b := NewBufferPool(NewPager(), 4)
	if _, _, err := b.Read(PageID(42)); err == nil {
		t.Error("reading unknown record through pool should error")
	}
}

// Random mixed workload: the pool must always return correct data.
func TestBufferPoolRandomized(t *testing.T) {
	p := NewPager()
	const n = 50
	want := make([][]byte, n)
	ids := make([]PageID, n)
	rng := rand.New(rand.NewSource(8))
	for i := range want {
		want[i] = make([]byte, rng.Intn(3*PageSize))
		rng.Read(want[i])
		ids[i] = p.WriteRecord(want[i])
	}
	b := NewBufferPool(p, 7)
	for trial := 0; trial < 2000; trial++ {
		i := rng.Intn(n)
		got, _, err := b.Read(ids[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("record %d corrupted through pool", i)
		}
	}
}
