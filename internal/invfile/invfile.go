// Package invfile implements the per-node inverted files of the IR-tree
// family (Section 5.1). A posting associates a child entry of a node with
// the maximum and minimum weight of a term among the documents in that
// child's subtree — the 〈d, maxw_{d,t}, minw_{d,t}〉 tuples of the MIR-tree.
// For the plain IR-tree the minimum weights are simply ignored. Files are
// serialized with varint encoding; the irtree package writes them as pager
// records and charges their loads (blocks = ⌈bytes/4096⌉), so the simulated
// I/O reflects real list sizes.
//
// In memory a File uses a flat, decode-once layout: one sorted term-id
// slice, a parallel offset slice, and a single contiguous posting slice.
// Term lookup is a binary search and iteration is cache-friendly — no maps
// and no per-term allocations on the query hot path. The byte encoding is
// unchanged from the original map-based representation, so files written
// by earlier versions of this package load bit-for-bit.
//
// There is one codec (Encode/Decode, record versions 1 and 2) and two ways
// to compute a traversal's per-entry bound sums from it: (*File).SumsInto
// over a decoded file (what the decoded-object cache holds) and
// DecodeSumsInto straight off the encoded bytes (the cold path, when no
// cache is configured or the file cannot fit it). The block-max packed
// layout (record versions 3 and 4) was removed after it lost to the flat
// one on every bench/ workload; its records are rejected by name.
//
// Both decoders read the bytes in place through one kernel built on the
// one-byte delta: in a node of at most 128 entries (the default fanout is
// 32) every entry delta is below 0x80, so every posting is exactly 9
// (max-only) or 17 (min-max) bytes. Such a posting is decoded with one
// byte load and one or two little-endian float loads, and a run of them
// that a read does not want is stepped over in one jump once the high bit
// of each delta byte has been checked at that stride. Any other encoding —
// a longer delta, a varint past two bytes, a truncated or corrupt buffer —
// goes to storage.Decoder, the general reader, so every input decodes, or
// fails, exactly as it would without the fast paths.
//
// The same kernel serves the write path. A copy-on-write mutation keeps
// the files it rewrites encoded: ReplaceEntry splices one entry's postings
// into a record, copying every run the edit does not touch as bytes, and
// Aggregate reads a child's aggregate off its record at the posting
// stride. Both accept and reject exactly the buffers Decode does, and
// ReplaceEntry returns exactly the bytes Encode would for the edited
// decoded file.
package invfile

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/storage"
	"repro/internal/vocab"
)

// maxEntry bounds decoded posting entries: they index per-node arrays, so
// a value past int32 (or one whose delta wraps int32) is always corrupt.
const maxEntry = math.MaxInt32

// Posting links a term to one child entry of a node.
type Posting struct {
	// Entry is the index of the child entry within its node.
	Entry int32
	// MaxW is the maximum weight of the term over the documents in the
	// entry's subtree (for leaf entries: the document's weight itself).
	MaxW float64
	// MinW is the minimum weight over documents in the subtree, or zero
	// when the term is absent from the subtree intersection (Section 5.1).
	MinW float64
}

// postingBytes approximates the resident size of one Posting (int32 padded
// to 8 bytes plus two float64s) for cache byte accounting.
const postingBytes = 24

// File is the inverted file of one tree node: a posting list per term,
// held in a flat layout. terms is ascending; the postings of terms[i] are
// postings[starts[i]:starts[i+1]], ascending in Entry.
//
// Concurrency: a File that is only read (every file returned by Decode or
// a decoded-object cache) is immutable and safe to share between
// goroutines. Add stages postings in a pending buffer that the next read
// accessor merges in, so a File being built must be confined to one
// goroutine until its last Add.
type File struct {
	terms    []vocab.TermID
	starts   []int32 // len(terms)+1 when terms non-empty
	postings []Posting

	pending []pendingPosting
}

// pendingPosting is one Add not yet merged into the flat arrays.
type pendingPosting struct {
	term vocab.TermID
	p    Posting
}

// New returns an empty inverted file.
func New() *File {
	return &File{}
}

// Add appends a posting for term t. Postings for one term should be added
// in ascending entry order (the flat merge sorts defensively).
func (f *File) Add(t vocab.TermID, p Posting) {
	f.pending = append(f.pending, pendingPosting{term: t, p: p})
}

// freeze merges pending Adds into the flat layout. It is a no-op (and
// therefore safe on shared read-only files) when nothing is pending.
// Only the pending postings are sorted; one pass then merges them into
// the already ordered flat arrays. Postings with equal term and entry keep
// the flat ones first, then the pending ones in Add order.
func (f *File) freeze() {
	if len(f.pending) == 0 {
		return
	}
	pending := f.pending
	slices.SortStableFunc(pending, func(a, b pendingPosting) int {
		if a.term != b.term {
			return cmp.Compare(a.term, b.term)
		}
		return cmp.Compare(a.p.Entry, b.p.Entry)
	})
	old := *f
	*f = File{
		terms:    make([]vocab.TermID, 0, len(old.terms)),
		starts:   make([]int32, 0, len(old.starts)),
		postings: make([]Posting, 0, len(old.postings)+len(pending)),
	}
	pi := 0
	for ti, t := range old.terms {
		for _, p := range old.postings[old.starts[ti]:old.starts[ti+1]] {
			for ; pi < len(pending) && (pending[pi].term < t || pending[pi].term == t && pending[pi].p.Entry < p.Entry); pi++ {
				f.push(pending[pi].term, pending[pi].p)
			}
			f.push(t, p)
		}
	}
	for ; pi < len(pending); pi++ {
		f.push(pending[pi].term, pending[pi].p)
	}
	f.starts = append(f.starts, int32(len(f.postings)))
}

// push appends one posting to a flat layout under construction. Callers
// push in (term, entry) order and close starts once after the last one.
func (f *File) push(t vocab.TermID, p Posting) {
	if n := len(f.terms); n == 0 || f.terms[n-1] != t {
		f.terms = append(f.terms, t)
		f.starts = append(f.starts, int32(len(f.postings)))
	}
	f.postings = append(f.postings, p)
}

// EntryWeight is one term of a child entry's subtree aggregate: the
// weights ReplaceEntry stores for that entry under Term, and what
// Aggregate derives for a whole file.
type EntryWeight struct {
	Term       vocab.TermID
	MaxW, MinW float64
}

// termIndex returns the position of t in the sorted term slice, or -1.
func (f *File) termIndex(t vocab.TermID) int {
	if i, ok := slices.BinarySearch(f.terms, t); ok {
		return i
	}
	return -1
}

// Postings returns the posting list for t (nil when absent). The slice
// aliases the file's flat layout; callers must not modify it and must not
// retain it across a subsequent Add.
func (f *File) Postings(t vocab.TermID) []Posting {
	f.freeze()
	i := f.termIndex(t)
	if i < 0 {
		return nil
	}
	return f.postings[f.starts[i]:f.starts[i+1]:f.starts[i+1]]
}

// NumPostings returns the total number of postings across all terms.
func (f *File) NumPostings() int {
	f.freeze()
	return len(f.postings)
}

// Terms returns the file's terms in ascending order. The slice is the
// file's own sorted term index — kept sorted once at decode/merge time,
// never rebuilt per call. Callers must not modify it and must not retain
// it across a subsequent Add.
func (f *File) Terms() []vocab.TermID {
	f.freeze()
	return f.terms
}

// MemBytes approximates the resident size of the decoded file — the
// figure the decoded-object cache accounts against its byte cap.
func (f *File) MemBytes() int64 {
	f.freeze()
	return int64(len(f.postings))*postingBytes +
		int64(len(f.terms))*4 + int64(len(f.starts))*4 + 96
}

// MaxDecodedBytes bounds the MemBytes of the File decoded from an encoded
// buffer, letting readers test cacheability before paying for a full
// decode. Every stored term costs ≥ 2 encoded bytes (id + count varints)
// and holds ≥ 1 posting costing ≥ 9 (max-only) or ≥ 17 (min-max) encoded
// bytes, against 8 + 24 decoded bytes — so 3·len plus the fixed header
// dominates both.
func MaxDecodedBytes(buf []byte) int64 {
	return 3*int64(len(buf)) + 128
}

// Serialization versions: the IR-tree stores only maximum weights (one
// float per posting, as in Cong et al.); the MIR-tree stores both bounds.
// The version byte makes the stored sizes — and therefore the simulated
// block-I/O charges — faithful to each index.
const (
	versionMaxOnly = 1
	versionMinMax  = 2
)

// checkVersion accepts the two record versions this package writes.
// Versions 3 and 4 were the block-max packed layout, which this build no
// longer reads: name it, so an operator holding such an index learns to
// rebuild rather than suspecting corruption.
func checkVersion(version uint64) error {
	switch version {
	case versionMaxOnly, versionMinMax:
		return nil
	case 3, 4:
		return fmt.Errorf("invfile: version %d is the removed packed posting layout; rebuild the index", version)
	default:
		return fmt.Errorf("invfile: unknown version %d", version)
	}
}

// Encode serializes the file: version, term count, then per term
// (ascending) the term id, posting count, and per posting the entry
// (delta-coded) and weight(s). With includeMin=false the minimum weights
// are omitted (IR-tree layout) and decode as zero. The byte layout is
// identical to the pre-flat (map-based) encoder, so existing on-disk
// indexes remain readable and re-saving produces identical files.
func (f *File) Encode(includeMin bool) []byte {
	f.freeze()
	version := uint64(versionMaxOnly)
	if includeMin {
		version = versionMinMax
	}
	buf := make([]byte, 0, f.encodedLen(version, includeMin))
	buf = storage.AppendUvarint(buf, version)
	buf = storage.AppendUvarint(buf, uint64(len(f.terms)))
	for i, t := range f.terms {
		ps := f.postings[f.starts[i]:f.starts[i+1]]
		buf = storage.AppendUvarint(buf, uint64(t))
		buf = storage.AppendUvarint(buf, uint64(len(ps)))
		prev := int32(0)
		for _, p := range ps {
			buf = storage.AppendUvarint(buf, uint64(p.Entry-prev))
			prev = p.Entry
			buf = storage.AppendFloat64(buf, p.MaxW)
			if includeMin {
				buf = storage.AppendFloat64(buf, p.MinW)
			}
		}
	}
	return buf
}

// encodedLen is the exact length Encode produces for a frozen file, so the
// record buffer is allocated once instead of grown through every size.
func (f *File) encodedLen(version uint64, includeMin bool) int {
	weights := 8
	if includeMin {
		weights = 16
	}
	n := storage.UvarintLen(version) + storage.UvarintLen(uint64(len(f.terms))) + weights*len(f.postings)
	for i, t := range f.terms {
		ps := f.postings[f.starts[i]:f.starts[i+1]]
		n += storage.UvarintLen(uint64(t)) + storage.UvarintLen(uint64(len(ps)))
		prev := int32(0)
		for _, p := range ps {
			n += storage.UvarintLen(uint64(p.Entry - prev))
			prev = p.Entry
		}
	}
	return n
}

// Decode parses a file serialized by Encode, building the flat layout in
// one pass — the decode-once path the decoded-object cache stores. Files
// written by Encode store terms strictly ascending and entries
// delta-coded (so ascending within a term); a stored stream violating term
// order is corrupt and rejected, as DecodeSumsInto rejects it.
func Decode(buf []byte) (*File, error) {
	hasMin, n, off, err := readHeader(buf)
	if err != nil {
		return nil, err
	}
	f := &File{}
	if n > 0 {
		f.terms = make([]vocab.TermID, 0, n)
		f.starts = make([]int32, 0, n+1)
		// One allocation for every posting, sized from the buffer and not
		// from a stored count: no posting is shorter than the stride.
		f.postings = make([]Posting, 0, len(buf)/postingStride(hasMin))
	}
	t := vocab.TermID(0)
	for i := uint64(0); i < n; i++ {
		var cnt uint64
		if t, cnt, off, err = readTermHeader(buf, off, hasMin, i, t); err != nil {
			return nil, err
		}
		f.terms = append(f.terms, t)
		f.starts = append(f.starts, int32(len(f.postings)))
		prev := int32(0)
		for j := uint64(0); j < cnt; j++ {
			var p Posting
			if p, off, err = readPosting(buf, off, prev, hasMin); err != nil {
				return nil, err
			}
			prev = p.Entry
			f.postings = append(f.postings, p)
		}
	}
	f.starts = append(f.starts, int32(len(f.postings)))
	return f, nil
}

// SumScratch holds the reusable per-entry sum buffers a traversal threads
// through its node visits, eliminating the two float64-slice allocations
// every inverted-file read otherwise pays. The zero value is ready to use;
// the slices returned by the Sums helpers alias the scratch and stay valid
// only until its next use.
type SumScratch struct {
	Max, Min []float64
}

// buffers returns the scratch's two sum buffers resized to n (reallocating
// only on growth) and zero-filled with the given floor constants.
func (s *SumScratch) buffers(n int, floorMax, floorMin float64) (maxSums, minSums []float64) {
	if cap(s.Max) < n {
		s.Max = make([]float64, n)
		s.Min = make([]float64, n)
	}
	maxSums, minSums = s.Max[:n], s.Min[:n]
	for i := range maxSums {
		maxSums[i] = floorMax
		minSums[i] = floorMin
	}
	return maxSums, minSums
}

// floorSums accumulates the all-floors baseline of both bound sums.
func floorSums(maxTerms, minTerms []vocab.TermID, floorOf func(vocab.TermID) float64) (floorMax, floorMin float64) {
	for _, tm := range maxTerms {
		floorMax += floorOf(tm)
	}
	for _, tm := range minTerms {
		floorMin += floorOf(tm)
	}
	return floorMax, floorMin
}

// SumsInto computes the per-entry bound sums the super-user traversal
// needs from a decoded file: for every entry i,
//
//	maxSums[i] = Σ_{t∈maxTerms} max(MaxW(t,i), floor(t))
//	minSums[i] = Σ_{t∈minTerms} max(MinW(t,i), floor(t))  (MinW > floor only)
//
// each sum starting from its all-floors baseline and adding one term at a
// time in ascending term order (the order DecodeSumsInto also adds in, so
// the two agree bit for bit). Term lookup is a binary search (the node
// stores postings for its whole subtree vocabulary; a query cares about a
// handful of terms) and the sums land in caller-supplied scratch, making
// the warm hot path allocation-free. maxTerms and minTerms must be
// ascending (the super-user keeps them sorted). The returned slices alias
// scratch and stay valid only until its next use.
//
//maxbr:hotpath
func (f *File) SumsInto(nEntries int, maxTerms, minTerms []vocab.TermID, floorOf func(vocab.TermID) float64, scratch *SumScratch) (maxSums, minSums []float64, err error) {
	f.freeze()
	floorMax, floorMin := floorSums(maxTerms, minTerms, floorOf)
	maxSums, minSums = scratch.buffers(nEntries, floorMax, floorMin)

	mi, ni := 0, 0
	for mi < len(maxTerms) || ni < len(minTerms) {
		var t vocab.TermID
		switch {
		case mi >= len(maxTerms):
			t = minTerms[ni]
		case ni >= len(minTerms):
			t = maxTerms[mi]
		case maxTerms[mi] <= minTerms[ni]:
			t = maxTerms[mi]
		default:
			t = minTerms[ni]
		}
		wantMax := mi < len(maxTerms) && maxTerms[mi] == t
		wantMin := ni < len(minTerms) && minTerms[ni] == t
		if wantMax {
			mi++
		}
		if wantMin {
			ni++
		}
		ti := f.termIndex(t)
		if ti < 0 {
			continue
		}
		floor := floorOf(t)
		for _, p := range f.postings[f.starts[ti]:f.starts[ti+1]] {
			if p.Entry < 0 || int(p.Entry) >= nEntries {
				return nil, nil, fmt.Errorf("invfile: posting entry %d out of range", p.Entry)
			}
			if wantMax {
				maxSums[p.Entry] += p.MaxW - floor
			}
			if wantMin && p.MinW > floor {
				minSums[p.Entry] += p.MinW - floor
			}
		}
	}
	return maxSums, minSums, nil
}

// DecodeSumsInto computes the sums SumsInto defines in one pass over an
// encoded file, without materializing posting lists. This is the cold
// traversal path — taken when no decoded cache is configured (the
// paper-figure accounting) or the file is too large to cache, as the upper
// levels' files of a large index always are — so its cost is the cost of
// stepping over every term the read does not ask for. Term headers are
// read in place; the run of a term in neither set is skipped in one jump
// when all its deltas are one byte (see the package comment), and the
// postings of a wanted term are decoded in place the same way, with the
// general per-posting reader taking over wherever a longer delta appears.
// The returned slices alias scratch and stay valid only until its next
// use; with a reused scratch the per-node cost is allocation-free.
//
//maxbr:hotpath
func DecodeSumsInto(buf []byte, nEntries int, maxTerms, minTerms []vocab.TermID, floorOf func(vocab.TermID) float64, scratch *SumScratch) (maxSums, minSums []float64, err error) {
	hasMin, n, off, err := readHeader(buf)
	if err != nil {
		return nil, nil, err
	}
	floorMax, floorMin := floorSums(maxTerms, minTerms, floorOf)
	maxSums, minSums = scratch.buffers(nEntries, floorMax, floorMin)

	mi, ni := 0, 0 // cursors into maxTerms / minTerms (stored terms ascend)
	t := vocab.TermID(0)
	for i := uint64(0); i < n; i++ {
		var cnt uint64
		if t, cnt, off, err = readTermHeader(buf, off, hasMin, i, t); err != nil {
			return nil, nil, err
		}
		for mi < len(maxTerms) && maxTerms[mi] < t {
			mi++
		}
		for ni < len(minTerms) && minTerms[ni] < t {
			ni++
		}
		wantMax := mi < len(maxTerms) && maxTerms[mi] == t
		wantMin := ni < len(minTerms) && minTerms[ni] == t
		if !wantMax && !wantMin {
			if off, err = skipRun(buf, off, cnt, hasMin); err != nil {
				return nil, nil, err
			}
			continue
		}
		floor := floorOf(t)
		prev := int32(0)
		for j := uint64(0); j < cnt; j++ {
			var p Posting
			if p, off, err = readPosting(buf, off, prev, hasMin); err != nil {
				return nil, nil, err
			}
			prev = p.Entry
			if p.Entry < 0 || int(p.Entry) >= nEntries {
				return nil, nil, fmt.Errorf("invfile: posting entry %d out of range", p.Entry)
			}
			if wantMax {
				maxSums[p.Entry] += p.MaxW - floor
			}
			if wantMin && p.MinW > floor {
				minSums[p.Entry] += p.MinW - floor
			}
		}
	}
	return maxSums, minSums, nil
}

// ---- copy-on-write edits of encoded files ----

// headerRoom is the prefix ReplaceEntry reserves for the record header it
// writes last: a one-byte version and a term count of up to ten bytes.
const headerRoom = 1 + binary.MaxVarintLen64

// ReplaceEntry returns a copy of the encoded file buf in which the
// postings of entry are exactly agg (strictly ascending in Term), in buf's
// record version. A stored term whose postings were all entry's
// disappears, duplicates included; a term of agg the file lacks is
// inserted with its one posting. The result is byte for byte the encoding
// of the decoded file with that entry replaced, and every buffer Decode
// rejects is rejected here; buf itself is only read.
//
// The file is edited as bytes, in one pass and one allocation. A term not
// in agg without a posting for entry whose deltas are all one byte is
// copied verbatim behind its re-encoded header. In a touched run of such
// postings the ones before entry are copied, the new posting is written,
// and only the delta of the first posting after entry is re-encoded
// before the rest is copied. A run holding a longer delta is decoded
// posting by posting and re-encoded. The term count is written last, into
// a reserved prefix.
func ReplaceEntry(buf []byte, entry int32, agg []EntryWeight) ([]byte, error) {
	hasMin, n, off, err := readHeader(buf)
	if err != nil {
		return nil, err
	}
	// The edit never outgrows buf by more than agg's postings: a dropped
	// posting frees at least a stride, more than re-encoding the delta
	// after it can add, and a term header re-encodes no longer than it was
	// stored. Each term of agg adds at most a term header or one count
	// byte, its posting, and (only for a negative entry) a longer delta
	// after it.
	weights := postingStride(hasMin) - 1
	size := headerRoom + len(buf)
	for _, a := range agg {
		size += storage.UvarintLen(uint64(a.Term)) + 1 + 2*storage.UvarintLen(uint64(entry)) + weights
	}
	out := make([]byte, headerRoom, size)

	terms := uint64(0)
	ai := 0
	t := vocab.TermID(0)
	for i := uint64(0); i < n; i++ {
		var cnt uint64
		if t, cnt, off, err = readTermHeader(buf, off, hasMin, i, t); err != nil {
			return nil, err
		}
		for ; ai < len(agg) && agg[ai].Term < t; ai++ {
			out = appendTerm(out, agg[ai].Term, 1)
			out = appendPosting(out, entry, agg[ai], hasMin)
			terms++
		}
		var a *EntryWeight
		if ai < len(agg) && agg[ai].Term == t {
			a = &agg[ai]
			ai++
		}
		kept := false
		if out, off, kept, err = spliceRun(out, buf, off, cnt, t, entry, a, hasMin); err != nil {
			return nil, err
		}
		if kept {
			terms++
		}
	}
	for ; ai < len(agg); ai++ {
		out = appendTerm(out, agg[ai].Term, 1)
		out = appendPosting(out, entry, agg[ai], hasMin)
		terms++
	}

	version := uint64(versionMaxOnly)
	if hasMin {
		version = versionMinMax
	}
	start := headerRoom - storage.UvarintLen(version) - storage.UvarintLen(terms)
	storage.AppendUvarint(storage.AppendUvarint(out[start:start], version), terms)
	return out[start:], nil
}

// spliceRun appends to out term t's run of cnt postings at buf[off:],
// edited as ReplaceEntry defines: entry's postings replaced by a's weights,
// or dropped when a is nil. It returns the offset past the run and whether
// the term kept any posting (a term left with none writes nothing).
func spliceRun(out, buf []byte, off int, cnt uint64, t vocab.TermID, entry int32, a *EntryWeight, hasMin bool) ([]byte, int, bool, error) {
	stride := postingStride(hasMin)
	c := int(cnt)
	end := off + c*stride
	if cnt > maxOneByteRun {
		return spliceDecoded(out, buf, off, cnt, t, entry, a, hasMin)
	}
	// One pass over the delta bytes: lo is the first posting at or past
	// entry and prev the entry before it, hi the first posting past entry.
	j, e := 0, int32(0)
	for ; j < c && buf[off+j*stride] < 0x80 && e+int32(buf[off+j*stride]) < entry; j++ {
		e += int32(buf[off+j*stride])
	}
	lo, prev := j, e
	for ; j < c && buf[off+j*stride] < 0x80 && e+int32(buf[off+j*stride]) == entry; j++ {
		e = entry
	}
	hi, hiEntry := j, int32(0)
	if hi < c {
		hiEntry = e + int32(buf[off+hi*stride])
		if !oneByteDeltas(buf[off+hi*stride:end], stride) {
			return spliceDecoded(out, buf, off, cnt, t, entry, a, hasMin)
		}
	}
	kept := c - (hi - lo)
	if a != nil {
		kept++
	}
	if kept == 0 {
		return out, end, false, nil
	}
	out = appendTerm(out, t, kept)
	if a == nil && hi == lo { // untouched
		return append(out, buf[off:end]...), end, true, nil
	}
	out = append(out, buf[off:off+lo*stride]...)
	last := prev
	if a != nil {
		out = appendPosting(out, entry-prev, *a, hasMin)
		last = entry
	}
	if hi < c {
		p := off + hi*stride
		out = storage.AppendUvarint(out, uint64(hiEntry-last))
		out = append(out, buf[p+1:end]...)
	}
	return out, end, true, nil
}

// spliceDecoded is spliceRun for a run the one-byte pass cannot take: a
// first pass decodes it through readPosting, validating it and counting
// entry's postings, and a second re-encodes it with the edit applied.
func spliceDecoded(out, buf []byte, off int, cnt uint64, t vocab.TermID, entry int32, a *EntryWeight, hasMin bool) ([]byte, int, bool, error) {
	kept := int(cnt)
	if a != nil {
		kept++
	}
	p, e := off, int32(0)
	for j := uint64(0); j < cnt; j++ {
		var q Posting
		var err error
		if q, p, err = readPosting(buf, p, e, hasMin); err != nil {
			return nil, off, false, err
		}
		e = q.Entry
		if e == entry {
			kept--
		}
	}
	end := p
	if kept == 0 {
		return out, end, false, nil
	}
	out = appendTerm(out, t, kept)
	weights := postingStride(hasMin) - 1
	p, e = off, 0
	last, pending := int32(0), a != nil
	for j := uint64(0); j < cnt; j++ {
		q, next, _ := readPosting(buf, p, e, hasMin)
		p, e = next, q.Entry
		if pending && e >= entry {
			out = appendPosting(out, entry-last, *a, hasMin)
			last, pending = entry, false
		}
		if e == entry {
			continue
		}
		out = storage.AppendUvarint(out, uint64(e-last))
		out = append(out, buf[p-weights:p]...)
		last = e
	}
	if pending {
		out = appendPosting(out, entry-last, *a, hasMin)
	}
	return out, end, true, nil
}

// appendTerm appends a term header: the term id and its posting count.
func appendTerm(out []byte, t vocab.TermID, cnt int) []byte {
	return storage.AppendUvarint(storage.AppendUvarint(out, uint64(t)), uint64(cnt))
}

// appendPosting appends one posting of weights a, its entry delta-coded
// as delta.
func appendPosting(out []byte, delta int32, a EntryWeight, hasMin bool) []byte {
	out = storage.AppendFloat64(storage.AppendUvarint(out, uint64(delta)), a.MaxW)
	if hasMin {
		out = storage.AppendFloat64(out, a.MinW)
	}
	return out
}

// Aggregate derives the subtree aggregate a node's parent stores for it
// from the node's encoded inverted file buf, in one pass: per stored term,
// ascending, the largest MaxW of its postings (never below zero) and,
// when the term is covered — it has nEntries postings, each with a
// positive MinW — the smallest MinW, otherwise zero. Every buffer Decode
// rejects is rejected. A run whose deltas are all one byte is read at its
// stride without decoding the deltas.
func Aggregate(buf []byte, nEntries int) ([]EntryWeight, error) {
	hasMin, n, off, err := readHeader(buf)
	if err != nil {
		return nil, err
	}
	stride := postingStride(hasMin)
	agg := make([]EntryWeight, 0, n)
	t := vocab.TermID(0)
	for i := uint64(0); i < n; i++ {
		var cnt uint64
		if t, cnt, off, err = readTermHeader(buf, off, hasMin, i, t); err != nil {
			return nil, err
		}
		maxW, minW, covered := 0.0, math.Inf(1), cnt == uint64(nEntries)
		if end := off + int(cnt)*stride; cnt <= maxOneByteRun && oneByteDeltas(buf[off:end], stride) {
			for ; off < end; off += stride {
				pMax, pMin := math.Float64frombits(binary.LittleEndian.Uint64(buf[off+1:])), 0.0
				if hasMin {
					pMin = math.Float64frombits(binary.LittleEndian.Uint64(buf[off+9:]))
				}
				maxW, minW, covered = foldPosting(maxW, minW, covered, pMax, pMin)
			}
		} else {
			e := int32(0)
			for j := uint64(0); j < cnt; j++ {
				var p Posting
				if p, off, err = readPosting(buf, off, e, hasMin); err != nil {
					return nil, err
				}
				e = p.Entry
				maxW, minW, covered = foldPosting(maxW, minW, covered, p.MaxW, p.MinW)
			}
		}
		if !covered {
			minW = 0
		}
		agg = append(agg, EntryWeight{Term: t, MaxW: maxW, MinW: minW})
	}
	return agg, nil
}

// foldPosting folds one posting's weights into a term's aggregate: the
// running maximum and minimum and whether every minimum so far was
// positive. NaN weights never win a comparison, nor fail the minimum.
func foldPosting(maxW, minW float64, covered bool, pMax, pMin float64) (float64, float64, bool) {
	if pMax > maxW {
		maxW = pMax
	}
	if pMin < minW {
		minW = pMin
	}
	return maxW, minW, covered && !(pMin <= 0)
}

// ---- the in-place posting kernel (see the package comment) ----

// postingStride is the encoded size of a posting whose entry delta is one
// byte: the delta, then one (max-only) or two (min-max) float64s. No
// posting is shorter.
func postingStride(hasMin bool) int {
	if hasMin {
		return 17
	}
	return 9
}

// readHeader reads an encoded file's version and term count and returns
// whether its postings carry minimum weights, the term count, and the
// offset of the first term. Each stored term costs at least two encoded
// bytes (id and count varints), so a count beyond len(buf)/2 can only
// come from a corrupt buffer: it is rejected here, before a reader sizes
// an allocation from it (data pages are not checksummed; decoding must
// fail, not panic or overallocate).
func readHeader(buf []byte) (hasMin bool, n uint64, off int, err error) {
	version, off, err := readUvarint(buf, 0)
	if err != nil {
		return false, 0, off, err
	}
	if err := checkVersion(version); err != nil {
		return false, 0, off, err
	}
	if n, off, err = readUvarint(buf, off); err != nil {
		return false, 0, off, err
	}
	if n > uint64(len(buf))/2 {
		return false, 0, off, fmt.Errorf("invfile: term count %d exceeds %d-byte buffer", n, len(buf))
	}
	return version == versionMinMax, n, off, nil
}

// readTermHeader reads the header of the file's i-th term at buf[off:], its
// id and posting count, and returns the offset of the term's first
// posting. Three corrupt forms are rejected here, before any loop is
// bounded by them: a count the remaining bytes cannot hold at one stride
// per posting; a term not above prev, the one stored before it; and a term
// without postings. Encode writes terms strictly ascending, and
// DecodeSumsInto's cursors over the query terms, and its agreement with
// SumsInto over the decoded file, need that order. No encoder emits a
// posting-less term (terms exist only by Add'ing a posting); accepting one
// would let a decoded file re-encode into forms other paths reject.
func readTermHeader(buf []byte, off int, hasMin bool, i uint64, prev vocab.TermID) (t vocab.TermID, cnt uint64, next int, err error) {
	id, off, err := readUvarint(buf, off)
	if err != nil {
		return 0, 0, off, err
	}
	t = vocab.TermID(id)
	if i > 0 && t <= prev {
		return 0, 0, off, fmt.Errorf("invfile: term %d stored after term %d", t, prev)
	}
	if cnt, off, err = readUvarint(buf, off); err != nil {
		return 0, 0, off, err
	}
	rest := len(buf) - off
	maxCnt := rest / 9 // constant divisors: this runs once per stored term
	if hasMin {
		maxCnt = rest / 17
	}
	if cnt > uint64(maxCnt) {
		return 0, 0, off, fmt.Errorf("invfile: term %d claims %d postings in %d remaining bytes", t, cnt, rest)
	}
	if cnt == 0 {
		return 0, 0, off, fmt.Errorf("invfile: term %d with no postings", t)
	}
	return t, cnt, off, nil
}

// readUvarint reads the varint at buf[off:] and returns the offset past
// it. One- and two-byte encodings (every value below 16,384) are decoded
// in place, anything else by storage.Decoder.
func readUvarint(buf []byte, off int) (uint64, int, error) {
	if off < len(buf) && buf[off] < 0x80 {
		return uint64(buf[off]), off + 1, nil
	}
	if off+1 < len(buf) && buf[off+1] < 0x80 {
		return uint64(buf[off]&0x7f) | uint64(buf[off+1])<<7, off + 2, nil
	}
	d := storage.NewDecoderAt(buf, off)
	v := d.Uvarint()
	if err := d.Err(); err != nil {
		return 0, off, fmt.Errorf("invfile: %w", err)
	}
	return v, len(buf) - d.Remaining(), nil
}

// readPosting decodes the posting at buf[off:], whose entry delta counts
// from prev, and returns the offset past it. A one-byte delta is decoded in
// place; anything else, or a posting the buffer cannot hold, by
// storage.Decoder. Either way an entry past int32 is rejected: a wrapped
// entry can go negative yet pass the "< nEntries" checks downstream,
// turning a corrupt page into an index-out-of-range panic.
func readPosting(buf []byte, off int, prev int32, hasMin bool) (Posting, int, error) {
	if next := off + postingStride(hasMin); next <= len(buf) && buf[off] < 0x80 && prev <= maxEntry-0x7f {
		p := Posting{Entry: prev + int32(buf[off]), MaxW: math.Float64frombits(binary.LittleEndian.Uint64(buf[off+1:]))}
		if hasMin {
			p.MinW = math.Float64frombits(binary.LittleEndian.Uint64(buf[off+9:]))
		}
		return p, next, nil
	}
	d := storage.NewDecoderAt(buf, off)
	delta := d.Uvarint()
	if delta > maxEntry || int64(prev)+int64(delta) > maxEntry {
		return Posting{}, off, fmt.Errorf("invfile: posting entry delta %d overflows", delta)
	}
	p := Posting{Entry: prev + int32(delta), MaxW: d.Float64()}
	if hasMin {
		p.MinW = d.Float64()
	}
	if err := d.Err(); err != nil {
		return Posting{}, off, fmt.Errorf("invfile: %w", err)
	}
	return p, len(buf) - d.Remaining(), nil
}

// skipRun returns the offset past the cnt postings at buf[off:], which
// readTermHeader has checked fit in cnt strides. When every delta in the
// run is one byte the run is exactly cnt strides long: one pass checks the
// high bit of each delta byte and the run is stepped over in one jump. The
// check is what makes the jump exact — a longer delta makes the run longer
// than cnt strides, and the jump would land inside it and misparse the
// rest of the file — so on any such run the general per-posting walk runs
// instead.
func skipRun(buf []byte, off int, cnt uint64, hasMin bool) (int, error) {
	stride := postingStride(hasMin)
	end := off + int(cnt)*stride
	if oneByteDeltas(buf[off:end], stride) {
		return end, nil
	}
	d := storage.NewDecoderAt(buf, off)
	for j := uint64(0); j < cnt && d.Err() == nil; j++ {
		d.Uvarint()
		d.Float64()
		if hasMin {
			d.Float64()
		}
	}
	if err := d.Err(); err != nil {
		return off, fmt.Errorf("invfile: %w", err)
	}
	return len(buf) - d.Remaining(), nil
}

// maxOneByteRun bounds the runs the one-byte paths of ReplaceEntry and
// Aggregate take: the deltas of such a run sum to at most 0x7f per
// posting, so none of its entries can pass maxEntry, and readPosting would
// take its own one-byte path for every posting of it.
const maxOneByteRun = maxEntry / 0x7f

// oneByteDeltas reports whether every stride-th byte of run, from the
// first, is below 0x80: whether run read as postings of that stride has
// one-byte deltas only.
func oneByteDeltas(run []byte, stride int) bool {
	for i := 0; i < len(run); i += stride {
		if run[i] >= 0x80 {
			return false
		}
	}
	return true
}
