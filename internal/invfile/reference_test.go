package invfile

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/storage"
	"repro/internal/vocab"
)

// Posting links a term to one child entry of a node in a File.
type Posting struct {
	Entry      int32
	MaxW, MinW float64
}

// File is a record's postings held whole, the view the readers and the
// Composer are tested against: a posting list per term in a flat layout.
// terms is ascending; the postings of terms[i] are
// postings[starts[i]:starts[i+1]]. Decode reads a record into one; Add
// stages postings that the next read merges in.
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

// New returns an empty file.
func New() *File { return &File{} }

// Add stages a posting for term t.
func (f *File) Add(t vocab.TermID, p Posting) {
	f.pending = append(f.pending, pendingPosting{term: t, p: p})
}

// freeze merges pending Adds into the flat layout: the pending postings
// are stable-sorted by (term, entry), then merged into the flat ones in
// one pass, each inserted before the first flat posting of its term with
// a larger entry. Over a decoded record whose entries ascend that is the
// sorted union, flat postings first on ties; over a foreign record it is
// the merge ReplaceEntry's splice reproduces.
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
	*f = File{}
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

// Postings returns the posting list for t (nil when absent).
func (f *File) Postings(t vocab.TermID) []Posting {
	f.freeze()
	i, ok := slices.BinarySearch(f.terms, t)
	if !ok {
		return nil
	}
	return f.postings[f.starts[i]:f.starts[i+1]:f.starts[i+1]]
}

// Terms returns the file's terms in ascending order.
func (f *File) Terms() []vocab.TermID {
	f.freeze()
	return f.terms
}

// Entries returns f's postings as the entry lists a Composer takes: list
// e holds, term-ascending, the weights of every posting of entry e, up to
// the largest entry f holds. It panics on a negative entry.
func (f *File) Entries() [][]EntryWeight {
	f.freeze()
	var lists [][]EntryWeight
	for i, t := range f.terms {
		for _, p := range f.postings[f.starts[i]:f.starts[i+1]] {
			if p.Entry < 0 {
				panic(fmt.Sprintf("posting of term %d at entry %d", t, p.Entry))
			}
			for int(p.Entry) >= len(lists) {
				lists = append(lists, nil)
			}
			lists[p.Entry] = append(lists[p.Entry], EntryWeight{Term: t, MaxW: p.MaxW, MinW: p.MinW})
		}
	}
	return lists
}

// Encode is f's record for a tree of the given fanout, written by a
// Composer from f's entry lists. f must hold at most one posting per
// (term, entry) pair, as every node's record does.
func (f *File) Encode(includeMin bool, fanout int) []byte {
	return composeWith(&Composer{}, f.Entries(), includeMin, fanout)
}

// referenceEncode is the encoder the Composer replaced, kept as its
// reference: every posting sorted by (term, entry) (freeze), then the term
// directory and the postings written in that order. Unlike the Composer it
// takes any file, duplicate (term, entry) postings and entries beyond
// l's delta range included (their deltas are taken modulo 2^(8w)), so the
// fuzzers seed from records no node stores.
func (f *File) referenceEncode(l layout) []byte {
	f.freeze()
	buf := storage.AppendUvarint(storage.AppendUvarint(nil, l.version()), uint64(len(f.terms)))
	for i, t := range f.terms {
		buf = appendTerm(buf, t, int(f.starts[i+1]-f.starts[i]))
	}
	for i := range f.terms {
		prev := int32(0)
		for _, p := range f.postings[f.starts[i]:f.starts[i+1]] {
			buf = l.appendPosting(buf, uint32(p.Entry-prev)&l.mask(), p.MaxW, p.MinW)
			prev = p.Entry
		}
	}
	return buf
}
