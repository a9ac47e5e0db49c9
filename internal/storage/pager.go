// Package storage provides the disk substrate the object index is stored
// and accounted on: the Pager, a 4 KB-page record store holding the
// serialized tree nodes and inverted files in memory and, for a loaded
// index, in its index file, read whole (ReadRecord) or by byte range
// (ReadRecordAt); the I/O counter implementing the paper's simulated-I/O
// rule (Section 8: +1 per tree-node visit, +⌈bytes/4096⌉ per inverted-file
// load); the decoded-object cache above the Pager, which with the OS page
// cache under the file is a loaded index's whole cache hierarchy; the epoch
// pins that gate reclamation; and the varint encoding helpers shared by the
// node and posting-list serializers. The MIUR-tree keeps its nodes in
// memory and uses only the I/O counter.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"sync/atomic"
)

// PageSize is the fixed disk page size of the experimental setup (4 kB).
const PageSize = 4096

// PageID identifies one page within a Pager.
type PageID int64

// InvalidPage is the zero-like sentinel for "no page".
const InvalidPage PageID = -1

// Pager is the record store. Records larger than one page span
// consecutive pages; the pager tracks each record's byte length so reads
// return exactly what was written. A record is memory-resident when
// WriteRecord stored it, and file-resident when it is one of the records
// of the index file OpenPager opened: those are read from the file with a
// positioned read (pread) on every ReadRecord. Reclaim frees either kind,
// and a write into a reclaimed file slot is memory-resident.
//
// Concurrency: single writer, any number of lock-free readers. All state
// lives behind one atomically-published pagerState; WriteRecord builds the
// successor state and installs it with a release store, so a reader that
// observes a PageID (through a published tree snapshot) is guaranteed to
// observe the record behind it. Readers never block on the writer and the
// writer never waits for readers — the invariant the copy-on-write index
// snapshots are built on. WriteRecord and Reclaim require external
// single-writer serialization (the facade's writer mutex provides it).
//
// Reclaimed slots are rewritten in place by later WriteRecords. Readers
// only ever index slots behind addresses they took from a published
// snapshot — which by the reclamation protocol never include freed slots
// — so per-id reads stay lock-free and safe; only full scans (Records)
// join WriteRecord on the writer side.
type Pager struct {
	state atomic.Pointer[pagerState]
	free  []pageRun // coalesced free page runs, ascending; writer-owned
	file  *os.File  // holds the file-resident records; nil for NewPager

	readRecords atomic.Int64 // physical reads of file-resident records
	readPages   atomic.Int64
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
	// recs holds, at a record's first page, its bytes in one exact-length
	// slice once written in memory, and nil while the record is
	// file-resident; nil at every other page.
	recs [][]byte
	// recLen parallels recs: the record's byte length at its first page,
	// else continuationPage or freedPage.
	recLen []int64
}

const (
	// continuationPage marks a page inside a multi-page record.
	continuationPage = -1
	// freedPage marks a reclaimed page slot: not a record start, not a
	// continuation — readable by no one until a future write reuses it.
	freedPage = -2
)

// NewPager returns an empty in-memory pager.
func NewPager() *Pager {
	p := &Pager{}
	p.state.Store(&pagerState{})
	return p
}

// WriteRecord stores data as a new memory-resident record and returns its
// PageID. The record occupies ⌈len(data)/PageSize⌉ pages (at least one, so
// that empty records still have an address), carved from the first
// reclaimed run that fits, or appended when none does. The pager keeps
// data itself, cut to its length, and serves it to every reader: it is
// handed over, and the caller never writes to it again (Backend).
func (p *Pager) WriteRecord(data []byte) PageID {
	st := p.state.Load()
	n := recordPageCount(len(data))
	recs, recLen := st.recs, st.recLen
	id := InvalidPage
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
	if id == InvalidPage {
		id = PageID(len(recs))
		recs = append(recs, make([][]byte, n)...)
		recLen = append(recLen, make([]int64, n)...)
	}
	if data == nil {
		data = []byte{} // non-nil even when empty: nil marks a file-resident record
	}
	recs[id] = data[:len(data):len(data)]
	recLen[id] = int64(len(data))
	for i := 1; i < n; i++ {
		recLen[int(id)+i] = continuationPage
	}
	p.state.Store(&pagerState{recs: recs, recLen: recLen})
	return id
}

// Reclaim returns the pages of the given records, memory- or
// file-resident, to the free pool for reuse by future WriteRecords.
// Callers must guarantee no reader holds or can obtain the freed addresses
// (the epoch-pin protocol); like WriteRecord, Reclaim requires external
// single-writer serialization. Unknown or already-freed ids are ignored.
func (p *Pager) Reclaim(ids []PageID) {
	st := p.state.Load()
	changed := false
	for _, id := range ids {
		if id < 0 || int(id) >= len(st.recLen) || st.recLen[id] < 0 {
			continue
		}
		n := recordPageCount(int(st.recLen[id]))
		for i := 0; i < n; i++ {
			st.recLen[int(id)+i] = freedPage
		}
		st.recs[id] = nil // release the resident bytes now
		p.insertRun(pageRun{start: id, n: n})
		changed = true
	}
	if changed {
		// Republish (same backing arrays) so the in-place markers are
		// ordered before any address a later write hands out.
		p.state.Store(&pagerState{recs: st.recs, recLen: st.recLen})
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

// ReadRecord returns the record starting at id: a memory-resident record's
// own bytes, or a positioned read of a file-resident one, counted in
// ReadStats. The slice is shared and immutable, as the Backend contract
// says: callers may retain it but must not write through it. Handing out
// the stored slice is safe because WriteRecord keeps the slice its caller
// handed over, which nothing writes again, and Reclaim only drops the
// pager's reference, so a reader's slice never changes.
func (p *Pager) ReadRecord(id PageID) ([]byte, error) {
	rec, n, err := p.record(id)
	if err != nil || rec != nil {
		return rec, err
	}
	return p.ReadRecordAt(id, make([]byte, n), 0)
}

// ReadRecordAt returns bytes off to off+len(dst) of the record at id: a
// memory-resident record's own bytes, with no copy, or a positioned read
// of a file-resident one into dst, counted in ReadStats as one record of
// the pages the range spans. The result is shared and immutable, as
// ReadRecord's is.
func (p *Pager) ReadRecordAt(id PageID, dst []byte, off int) ([]byte, error) {
	rec, n, err := p.record(id)
	end := int64(off) + int64(len(dst))
	switch {
	case err != nil:
		return nil, err
	case off < 0 || end > n:
		return nil, fmt.Errorf("storage: bytes %d to %d outside the %d-byte record at page %d", off, end, n, id)
	case rec != nil:
		return rec[off:end:end], nil
	}
	if _, err := p.file.ReadAt(dst, pageOffset(id)+int64(off)); err != nil {
		if errors.Is(err, io.EOF) { // the file shrank under an open index
			return nil, fmt.Errorf("%w: record at page %d: %w", ErrTruncated, id, err)
		}
		return nil, fmt.Errorf("storage: record at page %d: %w", id, err)
	}
	p.readRecords.Add(1)
	if len(dst) > 0 {
		p.readPages.Add(int64((off+len(dst)-1)/PageSize - off/PageSize + 1))
	}
	return dst, nil
}

// record returns the length of the record at id and, when it is
// memory-resident, its bytes.
func (p *Pager) record(id PageID) ([]byte, int64, error) {
	st := p.state.Load()
	if id < 0 || int(id) >= len(st.recLen) || st.recLen[id] < 0 {
		return nil, 0, fmt.Errorf("storage: no record at page %d", id)
	}
	return st.recs[id], st.recLen[id], nil
}

// Resident reports whether the record at id is memory-resident, so
// ReadRecord returns its own bytes, not a fresh copy read from the file.
func (p *Pager) Resident(id PageID) bool {
	rec, _, _ := p.record(id)
	return rec != nil
}

// RecordPages returns the number of pages the record at id occupies —
// the block count the simulated I/O rule charges for loading it.
func (p *Pager) RecordPages(id PageID) int {
	if _, n, err := p.record(id); err == nil {
		return recordPageCount(int(n))
	}
	return 0
}

// NumPages returns the total number of allocated pages.
func (p *Pager) NumPages() int { return len(p.state.Load().recLen) }

// Records returns all live record addresses in ascending order.
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

// ReadStats reports the physical reads served from the index file:
// memory-resident records are not physical reads, so a pager from NewPager
// reports zeros.
func (p *Pager) ReadStats() ReadStats {
	return ReadStats{Records: p.readRecords.Load(), Pages: p.readPages.Load()}
}

// Close releases the index file OpenPager opened (no-op for NewPager).
// File-resident records cannot be read afterwards.
func (p *Pager) Close() error {
	if p.file == nil {
		return nil
	}
	return p.file.Close()
}

// ---- varint encoding helpers ----

// AppendUvarint appends v to buf in unsigned LEB128.
func AppendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

// UvarintLen returns the number of bytes AppendUvarint writes for v.
func UvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

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
