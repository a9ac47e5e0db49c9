// Package invfile implements the per-node inverted files of the IR-tree
// family (Section 5.1). A posting associates a child entry of a node with
// the maximum and minimum weight of a term among the documents in that
// child's subtree — the 〈d, maxw_{d,t}, minw_{d,t}〉 tuples of the MIR-tree.
// For the plain IR-tree the minimum weights are simply ignored. The irtree
// package writes files as pager records and charges their loads (blocks =
// ⌈bytes/4096⌉), so the simulated I/O reflects real list sizes.
//
// A Composer writes every record: given each entry's term-ascending list of
// weights, it merges them in (term, entry) order and encodes the result
// once. Readers never rebuild a record's postings; they read its bytes.
//
// A record puts its term directory first and every posting at one stride:
//
//	version | n | n × (term id, count), ascending | every posting, in term order
//
// The version, n and the term headers are uvarints. A posting is its
// entry's delta from the previous posting of its term (the first counts
// from zero) in w bytes, little-endian, then MaxW and, in the MIR-tree's
// min-max records, MinW as little-endian float64s. w is fixed per tree by
// its fanout and carried in the version byte: 1 byte up to a fanout of 256
// (the default is 32), 2 up to 65,536 and 4 beyond. A run of cnt postings
// is therefore exactly cnt strides long and the runs' offsets are the
// prefix sums of the counts, so a reader walks the headers and jumps to
// the runs it wants. Below a fanout of 129 every delta was already one
// varint byte, so records are exactly as long as in the varint layout
// before this one (record versions 1 and 2); the block-max packed layout
// (versions 3 and 4) lost to the flat one on every bench/ workload. Both
// are rejected by name.
//
// The term directory is a record's whole validation, one walk shared by
// every reader (directory): terms strictly ascend, no count is zero, and
// the postings the counts add up to fill the rest of the record exactly.
// Nothing in a posting can be malformed past that: a run's entries are the
// running sums of its deltas modulo 2^(8w) (read as int32 when w is 4),
// which never wrap in a record a Composer writes — its entries ascend below
// the fanout. So OpenDir, DecodeSumsInto, Aggregate and ReplaceEntry accept
// exactly the same records, and no reader steps through a run it does not
// use; a summed posting's entry is still checked against the node's.
//
// A traversal's per-entry bound sums are read off the record's bytes by a
// Dir, which walks the directory once, keeps the term ids and run starts,
// binary-searches them for the query terms and sums each wanted run in
// place (sumRun): an entry's sums start at one given value a side, the
// wanted terms' floors, and add one stored value per posting, in textrel's
// Model.Sum order. The decoded-object cache
// holds Dirs: over a record held in memory a Dir aliases its bytes; over
// one read from a file it is detached (Detach), keeps no bytes, and reads
// each wanted run through the record store's ranged read. DecodeSumsInto,
// the cold path (no cache configured, or a record that cannot fit it),
// indexes the record into a Dir kept in the caller's scratch on every
// read. The write path keeps a copy-on-write mutation's files encoded:
// ReplaceEntry splices one entry's postings into a record, copying every
// run the edit does not touch as bytes, and Aggregate reads a child's
// aggregate off its record at the posting stride.
package invfile

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/storage"
	"repro/internal/vocab"
)

// EntryWeight is one term of a child entry's subtree aggregate: the
// weights ReplaceEntry stores for that entry under Term, and what
// Aggregate derives for a whole file.
type EntryWeight struct {
	Term       vocab.TermID
	MaxW, MinW float64
}

// ---- the record layout ----

// firstVersion is the first record version of the fixed-stride layout:
// versions firstVersion to firstVersion+5 are, in order, max-only and
// min-max postings with 1-, 2- and 4-byte entry deltas. The IR-tree stores
// only maximum weights (one float per posting, as in Cong et al.); the
// MIR-tree stores both bounds, so the stored sizes — and therefore the
// simulated block-I/O charges — are faithful to each index.
const firstVersion = 5

// layout is the posting format of a record: whether postings carry a
// minimum weight, and the width of their entry deltas.
type layout struct {
	hasMin bool
	w      int // 1, 2 or 4 bytes
}

// layoutFor is the layout of a tree's records: the narrowest delta width
// that holds every entry of a node of the given fanout.
func layoutFor(includeMin bool, fanout int) layout {
	w := 1
	for w < 4 && fanout > 1<<(8*w) {
		w *= 2
	}
	return layout{hasMin: includeMin, w: w}
}

// layoutOf reads a record version. Versions 1 to 4 are the layouts this
// one replaced: name them, so an operator holding such an index learns to
// rebuild rather than suspecting corruption.
func layoutOf(version uint64) (layout, error) {
	switch {
	case version >= firstVersion && version < firstVersion+6:
		v := version - firstVersion
		return layout{hasMin: v&1 == 1, w: 1 << (v >> 1)}, nil
	case version == 1 || version == 2:
		return layout{}, fmt.Errorf("invfile: version %d is the varint-delta posting layout this build no longer reads; rebuild the index", version)
	case version == 3 || version == 4:
		return layout{}, fmt.Errorf("invfile: version %d is the removed packed posting layout; rebuild the index", version)
	default:
		return layout{}, fmt.Errorf("invfile: unknown version %d", version)
	}
}

// version is the record version byte of l.
func (l layout) version() uint64 {
	v := uint64(firstVersion + 2*(l.w/2)) // w 1, 2, 4 → 0, 2, 4
	if l.hasMin {
		v++
	}
	return v
}

// stride is the encoded size of every posting.
func (l layout) stride() int {
	if l.hasMin {
		return l.w + 16
	}
	return l.w + 8
}

// mask keeps the low 8w bits: entries and deltas are taken modulo 2^(8w).
func (l layout) mask() uint32 { return ^uint32(0) >> (32 - 8*l.w) }

// fits reports whether entry is one a record of layout l can hold.
func (l layout) fits(entry int32) bool { return uint32(entry)&^l.mask() == 0 }

// delta reads the entry delta of the posting at buf[off:] as its low 8w
// bits, which every caller takes through mask: four bytes are always
// there, as the posting's weights follow its delta.
func delta(buf []byte, off int) uint32 { return binary.LittleEndian.Uint32(buf[off:]) }

// weights reads the weights of the posting at buf[off:]; MinW reads as
// zero in a max-only record.
func (l layout) weights(buf []byte, off int) (maxW, minW float64) {
	maxW = math.Float64frombits(binary.LittleEndian.Uint64(buf[off+l.w:]))
	if l.hasMin {
		minW = math.Float64frombits(binary.LittleEndian.Uint64(buf[off+l.w+8:]))
	}
	return maxW, minW
}

// appendDelta appends an entry delta, already reduced by mask.
func (l layout) appendDelta(out []byte, delta uint32) []byte {
	switch l.w {
	case 1:
		return append(out, byte(delta))
	case 2:
		return binary.LittleEndian.AppendUint16(out, uint16(delta))
	}
	return binary.LittleEndian.AppendUint32(out, delta)
}

// appendPosting appends one posting: its delta, then its weights.
func (l layout) appendPosting(out []byte, delta uint32, maxW, minW float64) []byte {
	out = storage.AppendFloat64(l.appendDelta(out, delta), maxW)
	if l.hasMin {
		out = storage.AppendFloat64(out, minW)
	}
	return out
}

// appendTerm appends a term header: the term id and its posting count.
func appendTerm(out []byte, t vocab.TermID, cnt int) []byte {
	return storage.AppendUvarint(storage.AppendUvarint(out, uint64(t)), uint64(cnt))
}

// ---- composing records ----

// Composer composes posting records, the one encoder of the layout above.
// A record's entries are given in order, each as its term-ascending list
// of weights (Add, then EndEntry); Compose merges the lists in (term,
// entry) order into a stream, sizes the record from it and encodes it once
// into an exactly sized buffer, then starts over. The zero value is ready
// to use, and a Composer reused across records reuses its buffers, so it
// is confined to one goroutine; the records it returns are the caller's.
type Composer struct {
	lists  []EntryWeight // every entry's list, concatenated in entry order
	ends   []int         // ends[i] is where entry i's list ends in lists
	heads  []head        // the merge's heap of list heads, least key first
	stream []posting     // the record's postings, in (term, entry) order
	runs   []run         // the record's terms and their posting counts
}

// head is the next unmerged weight of one entry's list: key packs its
// term above its entry, so keys order as (term, entry) pairs do.
type head struct {
	key      uint64
	pos, end int
}

// posting is one posting of a record under composition.
type posting struct {
	term       vocab.TermID
	entry      int32
	maxW, minW float64
}

// run is one stored term of a record and its posting count.
type run struct {
	term vocab.TermID
	cnt  int
}

// headKey is the merge key of term t in entry's list.
func headKey(t vocab.TermID, entry int) uint64 { return uint64(t)<<32 | uint64(entry) }

// Add appends w to the list of the entry being given: the first, or the
// one after the last EndEntry. Within an entry, terms must strictly ascend
// and be non-negative (Compose panics otherwise); a leaf entry's weights
// are its object's, an internal entry's its child record's Aggregate.
func (c *Composer) Add(w EntryWeight) { c.lists = append(c.lists, w) }

// EndEntry ends the list of the entry being given, which may be empty.
func (c *Composer) EndEntry() { c.ends = append(c.ends, len(c.lists)) }

// Compose returns the record of the entries given since the last Compose,
// for a tree of the given fanout, and forgets them. With includeMin false
// the minimum weights are omitted (the IR-tree's layout). Every entry must
// be below the fanout's delta range — 2^(8w), any int32 when w is 4 — as
// every node's entries are.
func (c *Composer) Compose(includeMin bool, fanout int) []byte {
	c.merge()
	buf := c.encode(layoutFor(includeMin, fanout))
	c.lists, c.ends = c.lists[:0], c.ends[:0]
	return buf
}

// merge fills the stream with every entry's list, merged in (term, entry)
// order through a heap of the lists' heads.
func (c *Composer) merge() {
	h, start := c.heads[:0], 0
	for entry, end := range c.ends {
		if start < end {
			h = append(h, head{key: c.keyAt(start, entry), pos: start, end: end})
		}
		start = end
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	c.stream = c.stream[:0]
	for len(h) > 0 {
		top := &h[0]
		w := c.lists[top.pos]
		entry := int(uint32(top.key))
		c.stream = append(c.stream, posting{term: w.Term, entry: int32(entry), maxW: w.MaxW, minW: w.MinW})
		if top.pos++; top.pos < top.end {
			if next := c.keyAt(top.pos, entry); next > top.key {
				top.key = next
			} else {
				panic(fmt.Sprintf("invfile: entry %d lists term %d after term %d", entry, c.lists[top.pos].Term, w.Term))
			}
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(h, 0)
	}
	c.heads = h
}

// keyAt is the merge key of the weight at lists[pos], in entry's list.
func (c *Composer) keyAt(pos, entry int) uint64 {
	t := c.lists[pos].Term
	if t < 0 {
		panic(fmt.Sprintf("invfile: entry %d lists negative term %d", entry, t))
	}
	return headKey(t, entry)
}

// siftDown restores the heap order of h below i.
func siftDown(h []head, i int) {
	for {
		least, l := i, 2*i+1
		if l < len(h) && h[l].key < h[least].key {
			least = l
		}
		if r := l + 1; r < len(h) && h[r].key < h[least].key {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// encode writes the stream as a record in layout l: it counts the runs
// and sizes the record first, so the one buffer is allocated exactly.
func (c *Composer) encode(l layout) []byte {
	c.runs = c.runs[:0]
	for i, p := range c.stream {
		if i == 0 || p.term != c.stream[i-1].term {
			c.runs = append(c.runs, run{term: p.term})
		}
		c.runs[len(c.runs)-1].cnt++
	}
	size := storage.UvarintLen(l.version()) + storage.UvarintLen(uint64(len(c.runs))) + len(c.stream)*l.stride()
	for _, r := range c.runs {
		size += storage.UvarintLen(uint64(r.term)) + storage.UvarintLen(uint64(r.cnt))
	}
	buf := make([]byte, 0, size)
	buf = storage.AppendUvarint(buf, l.version())
	buf = storage.AppendUvarint(buf, uint64(len(c.runs)))
	for _, r := range c.runs {
		buf = appendTerm(buf, r.term, r.cnt)
	}
	prev := int32(0)
	for i, p := range c.stream {
		if i == 0 || p.term != c.stream[i-1].term {
			prev = 0
		}
		if !l.fits(p.entry) {
			panic(fmt.Sprintf("invfile: entry %d does not fit a %d-byte delta", p.entry, l.w))
		}
		buf = l.appendPosting(buf, uint32(p.entry-prev)&l.mask(), p.maxW, p.minW)
		prev = p.entry
	}
	return buf
}

// ---- the term directory: every reader's one validation ----

// directory walks a record's n term headers in order, checking each as it
// reads it (next) and, after the last, that the postings they count fill
// the rest of the record exactly (body). Those checks are the whole
// validation of a record; see the package comment.
type directory struct {
	layout
	buf   []byte
	n     int          // stored terms
	first int          // offset of the first term header
	off   int          // offset of the next header
	t     vocab.TermID // the term read last; -1 before the first
	total int          // postings counted by the headers read
	limit int          // the most postings the bytes from the first header (from the first posting, once found) can hold
}

// openDirectory reads a record's version and term count. Each stored term
// costs at least two header bytes, so a count beyond len(buf)/2 can only
// come from a corrupt buffer: it is rejected here, before a reader sizes
// an allocation from it (data pages are not checksummed; decoding must
// fail, not panic or overallocate).
func openDirectory(buf []byte) (directory, error) {
	version, off, err := readUvarint(buf, 0)
	if err != nil {
		return directory{}, err
	}
	l, err := layoutOf(version)
	if err != nil {
		return directory{}, err
	}
	n, off, err := readUvarint(buf, off)
	if err != nil {
		return directory{}, err
	}
	if n > uint64(len(buf))/2 {
		return directory{}, fmt.Errorf("invfile: term count %d exceeds %d-byte buffer", n, len(buf))
	}
	return directory{layout: l, buf: buf, n: int(n), first: off, off: off, t: -1, limit: (len(buf) - off) / l.stride()}, nil
}

// next reads the next term header: the term and its posting count. A
// two-byte id with a one-byte count — every term from 128 to 16,383 with
// fewer than 128 postings — that passes nextSlow's checks is read inline;
// anything else is left to nextSlow.
func (d *directory) next() (vocab.TermID, int, error) {
	b, o := d.buf, d.off
	if o+2 < len(b) && b[o] >= 0x80 && b[o+1] < 0x80 && b[o+2] < 0x80 {
		t, cnt := vocab.TermID(b[o]&0x7f)|vocab.TermID(b[o+1])<<7, int(b[o+2])
		if t > d.t && uint(cnt-1) < uint(d.limit-d.total) {
			d.off, d.t, d.total = o+3, t, d.total+cnt
			return t, cnt, nil
		}
	}
	return d.nextSlow()
}

// nextSlow is next for any header. It rejects a term not above the one
// before it (readers merge the stored terms with ascending query terms,
// and DecodeSumsInto must agree with Dir.SumsInto's binary search), a
// term without postings (no encoder writes one), and a count that takes
// the running total past what the record's bytes can hold, before any
// loop is bounded by it.
func (d *directory) nextSlow() (vocab.TermID, int, error) {
	id, off, err := readUvarint(d.buf, d.off)
	if err != nil {
		return 0, 0, err
	}
	cnt, off, err := readUvarint(d.buf, off)
	if err != nil {
		return 0, 0, err
	}
	t := vocab.TermID(id)
	switch {
	case id > math.MaxInt32:
		return 0, 0, fmt.Errorf("invfile: term id %d out of range", id)
	case t <= d.t:
		return 0, 0, fmt.Errorf("invfile: term %d stored after term %d", t, d.t)
	case cnt == 0:
		return 0, 0, fmt.Errorf("invfile: term %d with no postings", t)
	case cnt > uint64(d.limit-d.total):
		return 0, 0, fmt.Errorf("invfile: term %d claims %d postings past the record's %d", t, cnt, d.limit)
	}
	d.off, d.t, d.total = off, t, d.total+int(cnt)
	return t, int(cnt), nil
}

// body checks, once every header is read, that the postings they count
// fill the rest of the record exactly, and returns the offset of the
// first.
func (d *directory) body() (int, error) {
	if rest := len(d.buf) - d.off; rest != d.total*d.stride() {
		return 0, fmt.Errorf("invfile: %d bytes of postings after the term directory, which counts %d", rest, d.total)
	}
	return d.off, nil
}

// bodyStart returns where the postings begin, found without decoding a
// header: past the 2n-th byte that ends a uvarint. It bounds the running
// total by the bytes from there, so a reader may take each run as its
// header is read; body still checks the record after the last header.
func (d *directory) bodyStart() int {
	off := d.off
	for k := 2 * d.n; k > 0 && off < len(d.buf); off++ {
		if d.buf[off] < 0x80 {
			k--
		}
	}
	d.limit = (len(d.buf) - off) / d.stride()
	return off
}

// readUvarint reads the varint at buf[off:] and returns the offset past
// it.
func readUvarint(buf []byte, off int) (uint64, int, error) {
	v, n := binary.Uvarint(buf[off:])
	if n <= 0 {
		return 0, off, fmt.Errorf("invfile: corrupt uvarint at offset %d", off)
	}
	return v, off + n, nil
}

// ---- readers ----

// SumScratch holds the reusable per-entry sum buffers a traversal threads
// through its node visits, eliminating the two float64-slice allocations
// every inverted-file read otherwise pays, the Dir DecodeSumsInto indexes a
// record into, and the buffer a detached Dir reads its runs into. The zero
// value is ready to use; the slices returned by the Sums helpers alias the
// scratch and stay valid only until its next use.
type SumScratch struct {
	Max, Min []float64

	dir Dir
	run []byte
}

// buffers returns the scratch's two sum buffers resized to n (reallocating
// only on growth), every max sum set to maxStart and every min sum to
// minStart.
func (s *SumScratch) buffers(n int, maxStart, minStart float64) (maxSums, minSums []float64) {
	if cap(s.Max) < n || cap(s.Min) < n {
		s.Max, s.Min = make([]float64, n), make([]float64, n)
	}
	maxSums, minSums = s.Max[:n], s.Min[:n]
	for i := range n {
		maxSums[i], minSums[i] = maxStart, minStart
	}
	return maxSums, minSums
}

// runBuf returns the scratch's run buffer resized to n, reallocating only
// on growth.
func (s *SumScratch) runBuf(n int) []byte {
	if cap(s.run) < n {
		s.run = make([]byte, n)
	}
	return s.run[:n]
}

// sumRun is the summing kernel of Dir.SumsInto: it adds the run of
// postings at buf[from:to] to the sums the wants select, each posting's
// MaxW to its entry's max sum and its MinW to the min sum. It reads each
// entry as the running sum of the run's deltas and fails on one outside
// the node's len(maxSums) entries. A posting whose entry does not ascend
// (no Composer writes one) counts for nothing.
//
//maxbr:hotpath
func (l layout) sumRun(buf []byte, from, to int, wantMax, wantMin bool, maxSums, minSums []float64) error {
	stride, mask := l.stride(), l.mask()
	e, next := uint32(0), 0 // next: the first entry past the last counted posting
	for p := from; p < to; p += stride {
		e = (e + delta(buf, p)) & mask
		entry := int(int32(e))
		if entry < 0 || entry >= len(maxSums) {
			return fmt.Errorf("invfile: posting entry %d out of range", entry)
		}
		if entry < next {
			continue
		}
		maxW, minW := l.weights(buf, p)
		if wantMax {
			maxSums[entry] += maxW
		}
		if wantMin {
			minSums[entry] += minW
		}
		next = entry + 1
	}
	return nil
}

// DecodeSumsInto computes the per-entry bound sums the super-user
// traversal needs straight off an encoded file: for every entry i,
//
//	maxSums[i] = maxStart + Σ_{t∈maxTerms, i has a posting of t} MaxW(t,i)
//	minSums[i] = minStart + Σ_{t∈minTerms, i has a posting of t} MinW(t,i)
//
// each sum adding its postings in ascending term order. With the floors
// F(maxTerms) and F(minTerms) as the starts and postings that store
// increments, that is textrel's Model.Sum fold, so it bounds Model.Sum as
// that rounds (see the textrel package comment). A cached Dir's SumsInto
// agrees with it bit for bit. maxTerms and minTerms must be ascending.
// This is the cold traversal path — taken when no decoded cache is
// configured (the paper-figure accounting) or the record is too large to
// cache: it indexes the record into the Dir scratch keeps (validating it)
// and reads that. The returned slices alias scratch and stay valid only
// until its next use; with a reused scratch the per-node cost is
// allocation-free.
//
//maxbr:hotpath
func DecodeSumsInto(buf []byte, nEntries int, maxTerms, minTerms []vocab.TermID, maxStart, minStart float64, scratch *SumScratch) (maxSums, minSums []float64, err error) {
	dir := &scratch.dir
	if err = dir.open(buf); err == nil {
		maxSums, minSums, err = dir.SumsInto(nEntries, maxTerms, minTerms, maxStart, minStart, scratch)
	}
	dir.buf = nil // keep no record alive past the read
	return maxSums, minSums, err
}

// Dir is a record indexed in place — what the decoded-object cache holds.
// OpenDir walks the term directory once, validating the record, and keeps
// every stored term and where its run starts; SumsInto then binary-searches
// the query terms and sums their runs straight off the record's bytes, or,
// once the Dir is detached, off each run read from the record store. A Dir
// only reads its record, so once shared it is immutable and safe to use
// from any number of goroutines.
type Dir struct {
	layout
	buf    []byte
	read   func(dst []byte, off int) ([]byte, error) // a detached Dir's ranged read; nil while attached
	terms  []vocab.TermID                            // ascending
	starts []int32                                   // the postings of terms[i] are bytes starts[i] to starts[i+1]
}

// dirHeader is the resident size of a Dir besides its arrays: the struct,
// rounded up to its allocation size class.
const dirHeader = 96

// DirBytes is what the Dir over buf holds besides buf itself — its term
// and run-start arrays and the struct — read off the record's term count
// without walking the directory, so a cache can weigh a Dir before OpenDir
// builds it. It is exact for every record OpenDir accepts, and is all a
// detached Dir holds.
func DirBytes(buf []byte) int64 {
	d, _ := openDirectory(buf)
	return int64(8*d.n+4) + dirHeader
}

// OpenDir validates buf with one walk of its term directory and indexes
// it. It accepts exactly the records DecodeSumsInto accepts. The Dir
// aliases buf, which must not change while the Dir is in use.
func OpenDir(buf []byte) (*Dir, error) {
	dir := &Dir{}
	if err := dir.open(buf); err != nil {
		return nil, err
	}
	return dir, nil
}

// Detach drops the bytes d was opened over: from now on SumsInto reads each
// run it sums with read, which returns bytes off to off+len(dst) of the
// same record, read into dst (storage.Backend's ReadRecordAt, bound to the
// record's address). Call it before d is shared.
func (d *Dir) Detach(read func(dst []byte, off int) ([]byte, error)) {
	d.buf, d.read = nil, read
}

// open indexes buf into dir, reusing its arrays when they are large
// enough.
func (dir *Dir) open(buf []byte) error {
	d, err := openDirectory(buf)
	if err != nil {
		return err
	}
	if cap(dir.starts) < d.n+1 {
		dir.terms, dir.starts = make([]vocab.TermID, d.n), make([]int32, d.n+1)
	}
	dir.layout, dir.buf, dir.terms, dir.starts = d.layout, buf, dir.terms[:d.n], dir.starts[:d.n+1]
	dir.starts[0] = 0
	for i := range d.n {
		t, _, err := d.next()
		if err != nil {
			return err
		}
		dir.terms[i], dir.starts[i+1] = t, int32(d.total)
	}
	body, err := d.body()
	if err != nil {
		return err
	}
	for i, cnt := range dir.starts { // posting counts to byte offsets
		dir.starts[i] = int32(body + int(cnt)*d.stride())
	}
	return nil
}

// SumsInto computes the sums DecodeSumsInto defines over the indexed
// record, bit for bit: each query term, ascending, is binary-searched among
// the stored ones (a node stores its whole subtree's vocabulary; a query
// wants a handful of terms) and its run summed in place. The sums land in
// caller-supplied scratch, so the warm hot path is allocation-free; the
// returned slices alias scratch and stay valid only until its next use. A
// detached Dir reads each wanted run into scratch first, and fails with
// the record store's error, wrapped, when a read does.
//
//maxbr:hotpath
func (d *Dir) SumsInto(nEntries int, maxTerms, minTerms []vocab.TermID, maxStart, minStart float64, scratch *SumScratch) (maxSums, minSums []float64, err error) {
	maxSums, minSums = scratch.buffers(nEntries, maxStart, minStart)
	for mi, ni := 0, 0; mi < len(maxTerms) || ni < len(minTerms); {
		t := vocab.TermID(math.MaxInt32) // the next query term: the least at either cursor
		if mi < len(maxTerms) {
			t = maxTerms[mi]
		}
		if ni < len(minTerms) {
			t = min(t, minTerms[ni])
		}
		wantMax := mi < len(maxTerms) && maxTerms[mi] == t
		wantMin := ni < len(minTerms) && minTerms[ni] == t
		for mi < len(maxTerms) && maxTerms[mi] == t {
			mi++
		}
		for ni < len(minTerms) && minTerms[ni] == t {
			ni++
		}
		i, ok := slices.BinarySearch(d.terms, t)
		if !ok {
			continue
		}
		buf, from, to := d.buf, int(d.starts[i]), int(d.starts[i+1])
		if d.read != nil {
			if buf, err = d.read(scratch.runBuf(to-from), from); err != nil {
				return nil, nil, fmt.Errorf("invfile: run of term %d: %w", t, err)
			}
			from, to = 0, to-from
		}
		if err := d.sumRun(buf, from, to, wantMax, wantMin, maxSums, minSums); err != nil {
			return nil, nil, err
		}
	}
	return maxSums, minSums, nil
}

// ---- copy-on-write edits of encoded files ----

// headerRoom is the prefix ReplaceEntry reserves for the version and term
// count it writes last: a one-byte version and a count of up to ten bytes.
const headerRoom = 1 + binary.MaxVarintLen64

// ReplaceEntry returns a copy of the encoded file buf in which the
// postings of entry are exactly agg (strictly ascending in Term), in buf's
// layout. A stored term whose postings were all entry's disappears,
// duplicates included; a term of agg the file lacks is inserted with its
// one posting. The result is byte for byte the encoding of the decoded
// file with entry's postings removed and agg's merged in (for a record
// a Composer wrote, the record of its entries with entry's list replaced); it fails exactly where
// OpenDir does, and for an entry the layout cannot hold. buf itself is only
// read.
//
// The file is edited as bytes, in one pass over its directory and runs:
// every run is copied as bytes but for the postings the edit adds, drops or
// follows (spliceRun). The term headers are re-encoded into a region ahead
// of the postings, which is moved up against them at the end, with the
// version and term count before it. The pass writes into a pooled buffer
// sized for the most the edit can need, and the result is copied out
// exactly sized: the pager keeps every record it is handed for the
// record's life. With the pool warm, the result is the one allocation.
func ReplaceEntry(buf []byte, entry int32, agg []EntryWeight) ([]byte, error) {
	d, err := openDirectory(buf)
	if err != nil {
		return nil, err
	}
	if !d.fits(entry) {
		return nil, fmt.Errorf("invfile: entry %d does not fit a %d-byte delta", entry, d.w)
	}
	// The result's headers take at most buf's plus, per term of agg, a new
	// header with a one-byte count or one more byte of count; its postings
	// at most buf's plus one per term of agg.
	stride, delta, p := d.stride(), uint32(entry)&d.mask(), d.bodyStart()
	dirEnd := headerRoom + p - d.first
	for _, a := range agg {
		dirEnd += storage.UvarintLen(uint64(a.Term)) + 1
	}
	bp, _ := editPool.Get().(*[]byte)
	if need := dirEnd + len(buf) - p + len(agg)*stride; bp == nil || cap(*bp) < need {
		bp = new([]byte)
		*bp = make([]byte, need)
	}
	defer editPool.Put(bp)
	out := (*bp)[:dirEnd]
	dir := out[headerRoom:headerRoom:dirEnd]

	terms, ai := 0, 0
	for range d.n {
		t, cnt, err := d.next()
		if err != nil {
			return nil, err
		}
		for ; ai < len(agg) && agg[ai].Term < t; ai++ {
			dir, out = appendTerm(dir, agg[ai].Term, 1), d.appendPosting(out, delta, agg[ai].MaxW, agg[ai].MinW)
			terms++
		}
		var a *EntryWeight
		if ai < len(agg) && agg[ai].Term == t {
			a = &agg[ai]
			ai++
		}
		kept := 0
		out, kept = d.spliceRun(out, buf[p:p+cnt*stride], entry, a)
		if kept > 0 {
			dir = appendTerm(dir, t, kept)
			terms++
		}
		p += cnt * stride
	}
	if _, err := d.body(); err != nil {
		return nil, err
	}
	for ; ai < len(agg); ai++ {
		dir, out = appendTerm(dir, agg[ai].Term, 1), d.appendPosting(out, delta, agg[ai].MaxW, agg[ai].MinW)
		terms++
	}

	start := dirEnd - len(dir)
	copy(out[start:dirEnd], dir)
	version := d.version()
	start -= storage.UvarintLen(version) + storage.UvarintLen(uint64(terms))
	storage.AppendUvarint(storage.AppendUvarint(out[start:start], version), uint64(terms))
	out = out[start:]
	rec := make([]byte, len(out))
	copy(rec, out) // the compiler fuses these into one allocation it does not clear
	return rec, nil
}

// editPool holds ReplaceEntry's working buffers (*[]byte).
var editPool sync.Pool

// spliceRun appends run, one term's postings, edited as ReplaceEntry
// defines, and returns how many postings it kept: entry's are dropped, and
// a, when not nil, is written before the first posting past entry (after
// the last when there is none). Between the postings the edit touches
// (seek), postings are copied as bytes; only the first after a dropped or
// new posting has its delta rewritten. An untouched run is one seek and
// one copy.
func (l layout) spliceRun(out, run []byte, entry int32, a *EntryWeight) ([]byte, int) {
	stride, mask := l.stride(), l.mask()
	target := uint32(entry) & mask
	e, last := uint32(0), uint32(0) // the entry before p; the last one written
	kept, from := 0, 0              // from: the first byte of run not yet in out
	for p := 0; ; {
		q, eq := l.seek(run, p, e, entry, a != nil)
		if q > p { // the postings from p up to q are kept
			if last != e {
				first := (e + delta(run, p)) & mask
				out = l.appendDelta(append(out, run[from:p]...), (first-last)&mask)
				from = p + l.w
			}
			kept += (q - p) / stride
			last = eq
		}
		if q == len(run) {
			break
		}
		e = eq
		if next := (e + delta(run, q)) & mask; int32(next) != entry { // past entry: a goes first
			out = l.appendPosting(append(out, run[from:q]...), (target-last)&mask, a.MaxW, a.MinW)
			last, from, a, p = target, q, nil, q
			kept++
			continue
		}
		out = append(out, run[from:q]...) // entry's own: dropped
		from, e, p = q+stride, target, q+stride
	}
	out = append(out, run[from:]...)
	if a != nil {
		out = l.appendPosting(out, (target-last)&mask, a.MaxW, a.MinW)
		kept++
	}
	return out, kept
}

// seek returns the offset of the first posting of run, at or after p,
// that the edit touches — entry's, or when insert is set one past entry —
// or len(run), and the entry of the posting before it; e is the entry of
// the posting before p.
func (l layout) seek(run []byte, p int, e uint32, entry int32, insert bool) (int, uint32) {
	stride, mask := l.stride(), l.mask()
	for ; p < len(run); p += stride {
		next := (e + delta(run, p)) & mask
		if int32(next) == entry || insert && int32(next) > entry {
			break
		}
		e = next
	}
	return p, e
}

// Aggregate derives the subtree aggregate a node's parent stores for it
// from the node's encoded inverted file buf: per stored term, ascending,
// the largest MaxW of its postings (never below zero) and, when the term
// is covered — it has nEntries postings, each with a positive MinW — the
// smallest MinW, otherwise zero. It fails exactly where OpenDir does, and
// reads the weights at the posting stride without decoding a delta.
func Aggregate(buf []byte, nEntries int) ([]EntryWeight, error) {
	d, err := openDirectory(buf)
	if err != nil {
		return nil, err
	}
	stride, off := d.stride(), d.bodyStart()
	agg := make([]EntryWeight, 0, d.n)
	for range d.n {
		t, cnt, err := d.next()
		if err != nil {
			return nil, err
		}
		maxW, minW, covered := 0.0, math.Inf(1), cnt == nEntries
		for end := off + cnt*stride; off < end; off += stride {
			pMax, pMin := d.weights(buf, off)
			if pMax > maxW {
				maxW = pMax
			}
			if pMin < minW {
				minW = pMin
			}
			// NaN weights never win a comparison, nor fail the minimum.
			covered = covered && !(pMin <= 0)
		}
		if !covered {
			minW = 0
		}
		agg = append(agg, EntryWeight{Term: t, MaxW: maxW, MinW: minW})
	}
	if _, err := d.body(); err != nil {
		return nil, err
	}
	return agg, nil
}
