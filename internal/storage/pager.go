// Package storage provides the disk substrate the object index is stored
// and accounted on: two 4 KB-page record backends holding serialized tree
// nodes and inverted files (the in-memory Pager, which can reclaim retired
// records, and the append-only index-file FilePager), the I/O counter
// implementing the paper's simulated-I/O rule (Section 8: +1 per tree-node
// visit, +⌈bytes/4096⌉ per inverted-file load), the LRU buffer pool a
// loaded index reads its file through, the decoded-object cache above it,
// the epoch pins that gate reclamation, and the varint encoding helpers
// shared by the node and posting-list serializers. The MIUR-tree keeps its
// nodes in memory and uses only the I/O counter.
package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"
)

// PageSize is the fixed disk page size of the experimental setup (4 kB).
const PageSize = 4096

// PageID identifies one page within a Pager.
type PageID int64

// InvalidPage is the zero-like sentinel for "no page".
const InvalidPage PageID = -1

// Pager is the in-memory Backend: an append-oriented page store. Records
// larger than one page span consecutive pages; the pager tracks each
// record's byte length so reads return exactly what was written.
//
// Concurrency: single writer, any number of lock-free readers. All state
// lives behind one atomically-published pagerState; WriteRecord builds the
// successor state and installs it with a release store, so a reader that
// observes a PageID (through a published tree snapshot) is guaranteed to
// observe the pages behind it. Readers never block on the writer and the
// writer never waits for readers — the invariant the copy-on-write index
// snapshots are built on. WriteRecord and Reclaim require external
// single-writer serialization (the facade's writer mutex provides it).
//
// Reclaim weakens the pure append-only picture: slots of records every
// reader is provably past may be rewritten in place and reused by later
// WriteRecords. Readers only ever index pages behind addresses they took
// from a published snapshot — which by the reclamation protocol never
// include freed slots — so per-id reads stay lock-free and safe; only
// full scans (Records) join WriteRecord on the writer side.
type Pager struct {
	state atomic.Pointer[pagerState]
	free  []pageRun // coalesced free page runs, ascending; writer-owned
}

// pageRun is one maximal run of reclaimed, reusable pages.
type pageRun struct {
	start PageID
	n     int
}

// pagerState is one immutable publication of the pager's contents. The
// slices grow append-only: a successor state may share the same backing
// arrays with more elements. Elements below a previously published length
// are rewritten only by Reclaim (marking freed slots) and by WriteRecord
// reusing a freed run — slots the reclamation protocol guarantees no
// reader can index — so readers never observe a torn or reused entry.
type pagerState struct {
	pages  [][]byte
	recLen []int64 // parallel to pages: record byte length at its first page, else -1 (continuation) / -2 (freed)
}

// freedPage marks a reclaimed page slot in recLen: not a record start, not
// a continuation — readable by no one until a future write reuses it.
const freedPage = -2

// NewPager returns an empty in-memory pager.
func NewPager() *Pager {
	p := &Pager{}
	p.state.Store(&pagerState{})
	return p
}

// WriteRecord writes data as a new record and returns its PageID. The
// record occupies ⌈len(data)/PageSize⌉ pages (at least one, so that empty
// records still have an address), carved from the first reclaimed run
// that fits, or appended when none does.
func (p *Pager) WriteRecord(data []byte) PageID {
	st := p.state.Load()
	n := (len(data) + PageSize - 1) / PageSize
	if n == 0 {
		n = 1
	}
	pages, recLen := st.pages, st.recLen
	id := PageID(-1)
	for fi := range p.free {
		if p.free[fi].n >= n {
			id = p.free[fi].start
			if p.free[fi].n == n {
				p.free = append(p.free[:fi], p.free[fi+1:]...)
			} else {
				p.free[fi].start += PageID(n)
				p.free[fi].n -= n
			}
			break
		}
	}
	append_ := id < 0
	if append_ {
		id = PageID(len(pages))
	}
	for i := 0; i < n; i++ {
		page := make([]byte, PageSize)
		lo := i * PageSize
		hi := min(lo+PageSize, len(data))
		if lo < len(data) {
			copy(page, data[lo:hi])
		}
		length := int64(-1)
		if i == 0 {
			length = int64(len(data))
		}
		if append_ {
			pages = append(pages, page)
			recLen = append(recLen, length)
		} else {
			pages[int(id)+i] = page
			recLen[int(id)+i] = length
		}
	}
	p.state.Store(&pagerState{pages: pages, recLen: recLen})
	return id
}

// Reclaim returns the pages of the given records to the free pool for
// reuse by future WriteRecords. Callers must guarantee no reader holds or
// can obtain the freed addresses (the epoch-pin protocol); like
// WriteRecord, Reclaim requires external single-writer serialization.
// Unknown or already-freed ids are ignored.
func (p *Pager) Reclaim(ids []PageID) {
	st := p.state.Load()
	changed := false
	for _, id := range ids {
		if id < 0 || int(id) >= len(st.pages) || st.recLen[id] < 0 {
			continue
		}
		n := (int(st.recLen[id]) + PageSize - 1) / PageSize
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			st.recLen[int(id)+i] = freedPage
			st.pages[int(id)+i] = nil // release the resident 4 kB now
		}
		p.insertRun(pageRun{start: id, n: n})
		changed = true
	}
	if changed {
		// Republish (same backing arrays) so the in-place markers are
		// ordered before any address a later write hands out.
		p.state.Store(&pagerState{pages: st.pages, recLen: st.recLen})
	}
}

// insertRun adds a freed run to the sorted free list, coalescing with
// adjacent runs.
func (p *Pager) insertRun(r pageRun) {
	lo, hi := 0, len(p.free)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.free[mid].start < r.start {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	p.free = append(p.free, pageRun{})
	copy(p.free[lo+1:], p.free[lo:])
	p.free[lo] = r
	// Coalesce with successor, then predecessor.
	if lo+1 < len(p.free) && p.free[lo].start+PageID(p.free[lo].n) == p.free[lo+1].start {
		p.free[lo].n += p.free[lo+1].n
		p.free = append(p.free[:lo+1], p.free[lo+2:]...)
	}
	if lo > 0 && p.free[lo-1].start+PageID(p.free[lo-1].n) == p.free[lo].start {
		p.free[lo-1].n += p.free[lo].n
		p.free = append(p.free[:lo], p.free[lo+1:]...)
	}
}

// ReadRecord returns the record starting at id. The returned slice is a
// copy; callers may retain it.
func (p *Pager) ReadRecord(id PageID) ([]byte, error) {
	st := p.state.Load()
	if id < 0 || int(id) >= len(st.pages) || st.recLen[id] < 0 {
		return nil, fmt.Errorf("storage: no record at page %d", id)
	}
	length := int(st.recLen[id])
	out := make([]byte, length)
	for off := 0; off < length; off += PageSize {
		page := st.pages[int(id)+off/PageSize]
		copy(out[off:], page)
	}
	return out, nil
}

// RecordPages returns the number of pages the record at id occupies —
// the block count the simulated I/O rule charges for loading it.
func (p *Pager) RecordPages(id PageID) int {
	st := p.state.Load()
	if id < 0 || int(id) >= len(st.pages) || st.recLen[id] < 0 {
		return 0
	}
	n := (int(st.recLen[id]) + PageSize - 1) / PageSize
	if n == 0 {
		n = 1
	}
	return n
}

// NumPages returns the total number of allocated pages.
func (p *Pager) NumPages() int { return len(p.state.Load().pages) }

// Records returns all record addresses in ascending (append) order.
func (p *Pager) Records() []PageID {
	st := p.state.Load()
	out := make([]PageID, 0, len(st.recLen))
	for id, l := range st.recLen {
		if l >= 0 {
			out = append(out, PageID(id))
		}
	}
	return out
}

// ---- varint encoding helpers ----

// AppendUvarint appends v to buf in unsigned LEB128.
func AppendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

// AppendFloat64 appends the IEEE-754 bits of f, little-endian.
func AppendFloat64(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
}

// Decoder reads back values appended by the Append helpers.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps buf for reading.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Err returns the first decoding error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Uvarint reads one unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.err = fmt.Errorf("storage: corrupt uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// SkipPostings advances past cnt postings of an inverted-file term list —
// each a varint entry delta followed by one float64 (or two when hasMin) —
// without decoding the floats. This is the filtered-decode fast path: most
// of a node's stored vocabulary is irrelevant to any one query group.
func (d *Decoder) SkipPostings(cnt uint64, hasMin bool) {
	floats := 8
	if hasMin {
		floats = 16
	}
	for j := uint64(0); j < cnt && d.err == nil; j++ {
		d.Uvarint()
		if d.off+floats > len(d.buf) {
			d.err = fmt.Errorf("storage: truncated posting at offset %d", d.off)
			return
		}
		d.off += floats
	}
}

// Bytes reads n raw bytes and returns them as a copy.
func (d *Decoder) Bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.buf) {
		d.err = fmt.Errorf("storage: truncated %d-byte field at offset %d", n, d.off)
		return nil
	}
	out := make([]byte, n)
	copy(out, d.buf[d.off:])
	d.off += n
	return out
}

// Float64 reads one float64.
func (d *Decoder) Float64() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.err = fmt.Errorf("storage: truncated float64 at offset %d", d.off)
		return 0
	}
	bits := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return math.Float64frombits(bits)
}
