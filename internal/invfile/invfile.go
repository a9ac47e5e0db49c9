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
package invfile

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
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
// weights ReplaceEntry stores for that entry under Term.
type EntryWeight struct {
	Term       vocab.TermID
	MaxW, MinW float64
}

// ReplaceEntry returns a new file whose postings for entry are exactly agg
// (strictly ascending in Term) and whose other postings are the receiver's:
// one merge of the two ordered inputs, so replacing one child's aggregate
// in a parent costs a pass over the file and no sort. A term left without
// postings disappears. A receiver with nothing pending, such as a shared
// cached file, is not modified.
func (f *File) ReplaceEntry(entry int32, agg []EntryWeight) *File {
	f.freeze()
	g := &File{
		terms:    make([]vocab.TermID, 0, len(f.terms)+len(agg)),
		starts:   make([]int32, 0, len(f.terms)+len(agg)+1),
		postings: make([]Posting, 0, len(f.postings)+len(agg)),
	}
	ti, ai := 0, 0
	for ti < len(f.terms) || ai < len(agg) {
		// The next term is the smaller head of the two inputs, or both.
		fromFile := ai == len(agg) || ti < len(f.terms) && f.terms[ti] <= agg[ai].Term
		fromAgg := ti == len(f.terms) || ai < len(agg) && agg[ai].Term <= f.terms[ti]
		var t vocab.TermID
		var ps []Posting
		if fromFile {
			t, ps = f.terms[ti], f.postings[f.starts[ti]:f.starts[ti+1]]
			ti++
		}
		begin := len(g.postings)
		lo, _ := slices.BinarySearchFunc(ps, entry, func(p Posting, e int32) int { return cmp.Compare(p.Entry, e) })
		g.postings = append(g.postings, ps[:lo]...)
		if fromAgg {
			t = agg[ai].Term
			g.postings = append(g.postings, Posting{Entry: entry, MaxW: agg[ai].MaxW, MinW: agg[ai].MinW})
			ai++
		}
		for lo < len(ps) && ps[lo].Entry == entry {
			lo++
		}
		g.postings = append(g.postings, ps[lo:]...)
		if len(g.postings) > begin {
			g.terms = append(g.terms, t)
			g.starts = append(g.starts, int32(begin))
		}
	}
	if len(g.terms) > 0 {
		g.starts = append(g.starts, int32(len(g.postings)))
	}
	return g
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

// NumTerms returns the number of distinct terms in the file.
func (f *File) NumTerms() int {
	f.freeze()
	return len(f.terms)
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

// ForEach visits every (term, postings) pair in ascending term order. The
// postings slice passed to fn follows the same aliasing contract as
// Postings.
func (f *File) ForEach(fn func(t vocab.TermID, ps []Posting)) {
	f.freeze()
	for i, t := range f.terms {
		fn(t, f.postings[f.starts[i]:f.starts[i+1]:f.starts[i+1]])
	}
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
	n := uvarintLen(version) + uvarintLen(uint64(len(f.terms))) + weights*len(f.postings)
	for i, t := range f.terms {
		ps := f.postings[f.starts[i]:f.starts[i+1]]
		n += uvarintLen(uint64(t)) + uvarintLen(uint64(len(ps)))
		prev := int32(0)
		for _, p := range ps {
			n += uvarintLen(uint64(p.Entry - prev))
			prev = p.Entry
		}
	}
	return n
}

// uvarintLen is the number of bytes storage.AppendUvarint writes for v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// Decode parses a file serialized by Encode, building the flat layout in
// one pass — the decode-once path the decoded-object cache stores. Files
// written by Encode store terms ascending and entries delta-coded (so
// ascending within a term); a stored stream violating term order (foreign
// or corrupt but structurally decodable) is re-sorted defensively.
func Decode(buf []byte) (*File, error) {
	d := storage.NewDecoder(buf)
	version := d.Uvarint()
	if err := checkVersion(version); err != nil && d.Err() == nil {
		return nil, err
	}
	n := d.Uvarint()
	// Each stored term costs at least two encoded bytes (id and count
	// varints), so a count beyond len(buf)/2 can only come from a corrupt
	// buffer — reject it before sizing allocations from it (data pages
	// are not checksummed; decode must fail, not panic or overallocate).
	if d.Err() == nil && n > uint64(len(buf))/2 {
		return nil, fmt.Errorf("invfile: term count %d exceeds %d-byte buffer", n, len(buf))
	}
	f := &File{}
	if n > 0 && d.Err() == nil {
		f.terms = make([]vocab.TermID, 0, n)
		f.starts = make([]int32, 0, n+1)
		// One allocation for every posting, sized from the buffer and not
		// from a stored count: a posting is at least one delta byte and one
		// (max-only) or two (min-max) eight-byte weights.
		perPosting := 9
		if version == versionMinMax {
			perPosting = 17
		}
		f.postings = make([]Posting, 0, len(buf)/perPosting)
	}
	ordered := true
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		t := vocab.TermID(d.Uvarint())
		cnt := d.Uvarint()
		if cnt == 0 && d.Err() == nil {
			// No encoder emits a posting-less term (terms exist only by
			// Add'ing a posting); accepting one here would let a decoded
			// file re-encode into forms other paths reject.
			return nil, fmt.Errorf("invfile: term %d with no postings", t)
		}
		if len(f.terms) > 0 && t <= f.terms[len(f.terms)-1] {
			ordered = false
		}
		f.terms = append(f.terms, t)
		f.starts = append(f.starts, int32(len(f.postings)))
		prev := int32(0)
		for j := uint64(0); j < cnt && d.Err() == nil; j++ {
			delta := d.Uvarint()
			// Reject deltas that would wrap int32: a wrapped entry can go
			// negative yet pass the "< nEntries" checks downstream, turning
			// a corrupt page into an index-out-of-range panic.
			if delta > maxEntry || int64(prev)+int64(delta) > maxEntry {
				return nil, fmt.Errorf("invfile: posting entry delta %d overflows", delta)
			}
			entry := prev + int32(delta)
			prev = entry
			maxw := d.Float64()
			minw := 0.0
			if version == versionMinMax {
				minw = d.Float64()
			}
			f.postings = append(f.postings, Posting{Entry: entry, MaxW: maxw, MinW: minw})
		}
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("invfile: %w", err)
	}
	f.starts = append(f.starts, int32(len(f.postings)))
	if !ordered {
		// Route the decoded postings through the defensive merge.
		g := &File{}
		for i, t := range f.terms {
			for _, p := range f.postings[f.starts[i]:f.starts[i+1]] {
				g.Add(t, p)
			}
		}
		g.freeze()
		*f = *g
	}
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
// encoded file, without materializing posting lists: postings of terms in
// neither set are skipped byte-wise. This is the cold traversal path —
// taken when no decoded cache is configured (the paper-figure accounting)
// or the file is too large to cache. The returned slices alias scratch and
// stay valid only until its next use; with a reused scratch the per-node
// cost is allocation-free.
//
//maxbr:hotpath
func DecodeSumsInto(buf []byte, nEntries int, maxTerms, minTerms []vocab.TermID, floorOf func(vocab.TermID) float64, scratch *SumScratch) (maxSums, minSums []float64, err error) {
	d := storage.NewDecoder(buf)
	version := d.Uvarint()
	if err := checkVersion(version); err != nil && d.Err() == nil {
		return nil, nil, err
	}
	hasMin := version == versionMinMax

	floorMax, floorMin := floorSums(maxTerms, minTerms, floorOf)
	maxSums, minSums = scratch.buffers(nEntries, floorMax, floorMin)

	mi, ni := 0, 0 // cursors into maxTerms / minTerms (stored terms ascend)
	n := d.Uvarint()
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		t := vocab.TermID(d.Uvarint())
		cnt := d.Uvarint()
		for mi < len(maxTerms) && maxTerms[mi] < t {
			mi++
		}
		for ni < len(minTerms) && minTerms[ni] < t {
			ni++
		}
		wantMax := mi < len(maxTerms) && maxTerms[mi] == t
		wantMin := ni < len(minTerms) && minTerms[ni] == t
		if !wantMax && !wantMin {
			d.SkipPostings(cnt, hasMin)
			continue
		}
		floor := floorOf(t)
		prev := int32(0)
		for j := uint64(0); j < cnt; j++ {
			delta := d.Uvarint()
			if delta > maxEntry || int64(prev)+int64(delta) > maxEntry {
				return nil, nil, fmt.Errorf("invfile: posting entry delta %d overflows", delta)
			}
			entry := prev + int32(delta)
			prev = entry
			maxw := d.Float64()
			minw := 0.0
			if hasMin {
				minw = d.Float64()
			}
			if entry < 0 || int(entry) >= nEntries {
				return nil, nil, fmt.Errorf("invfile: posting entry %d out of range", entry)
			}
			if wantMax {
				maxSums[entry] += maxw - floor
			}
			if wantMin && minw > floor {
				minSums[entry] += minw - floor
			}
		}
	}
	if err := d.Err(); err != nil {
		return nil, nil, fmt.Errorf("invfile: %w", err)
	}
	return maxSums, minSums, nil
}
