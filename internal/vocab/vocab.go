// Package vocab maps terms (keywords) to dense integer identifiers and
// provides the document representation shared by objects and users. Every
// text description in the paper — an object's o.d, a user's u.d, a node's
// pseudo-document, and the candidate keyword set W — is a Doc or a set of
// TermIDs from one Vocabulary.
package vocab

import (
	"fmt"
	"slices"
	"sort"
)

// TermID identifies a term within one Vocabulary. IDs are dense, starting
// at zero, so they can index slices and bitsets directly. Negative values
// are reserved for unknown terms (see UnknownTerm) and never collide with
// vocabulary ids, no matter how much the vocabulary grows.
type TermID int32

// UnknownTerm returns the reserved id for the i-th unknown term of one
// document: a negative id no Add call can ever assign. A query keyword
// outside the corpus vocabulary must still occupy a distinct term slot —
// it dilutes the user's normalizer exactly like a known-but-rare term —
// while being guaranteed to match no object document.
func UnknownTerm(i int) TermID { return TermID(-1 - i) }

// Vocabulary assigns dense TermIDs to terms. The zero value is not usable;
// construct with New.
//
// A Vocabulary is a single-writer structure: Add and Truncate require
// exclusive access. Concurrent readers never touch it directly — they go
// through an immutable View captured at a publication point (see View).
type Vocabulary struct {
	byTerm map[string]TermID
	terms  []string

	// base is an immutable clone of byTerm covering ids [0, baseLen),
	// shared by every View handed out since it was built. It is replaced
	// (never mutated) when the overlay of newer terms grows past
	// viewOverlayMax, so per-publication View cost stays O(new terms)
	// with an amortized O(size) rebuild.
	base    map[string]TermID
	baseLen int
}

// New returns an empty Vocabulary.
func New() *Vocabulary {
	return &Vocabulary{byTerm: make(map[string]TermID)}
}

// Add returns the TermID for term, assigning a new one on first sight.
func (v *Vocabulary) Add(term string) TermID {
	if id, ok := v.byTerm[term]; ok {
		return id
	}
	id := TermID(len(v.terms))
	v.byTerm[term] = id
	v.terms = append(v.terms, term)
	return id
}

// Lookup returns the TermID for term and whether it is known.
func (v *Vocabulary) Lookup(term string) (TermID, bool) {
	id, ok := v.byTerm[term]
	return id, ok
}

// MustLookup returns the TermID for term, panicking when unknown. For
// tests and fixtures where absence is a programming error.
func (v *Vocabulary) MustLookup(term string) TermID {
	id, ok := v.byTerm[term]
	if !ok {
		panic(fmt.Sprintf("vocab: unknown term %q", term))
	}
	return id
}

// Term returns the string for id. It panics on an unknown id.
func (v *Vocabulary) Term(id TermID) string {
	if int(id) < 0 || int(id) >= len(v.terms) {
		panic(fmt.Sprintf("vocab: unknown term id %d", id))
	}
	return v.terms[id]
}

// Size returns the number of distinct terms.
func (v *Vocabulary) Size() int { return len(v.terms) }

// Truncate discards every term with id ≥ n, rolling the vocabulary back
// to a prior size. It is the writer's all-or-nothing escape hatch: a
// mutation that registered new terms and then failed before publishing
// restores the vocabulary exactly, so no half-applied growth is ever
// observable. n must not cut below the oldest live View's fence — the
// facade only ever truncates to the size captured at the start of the
// current (failed) mutation, which is at or above every published fence.
func (v *Vocabulary) Truncate(n int) {
	if n < 0 || n > len(v.terms) {
		panic(fmt.Sprintf("vocab: truncate to %d outside [0, %d]", n, len(v.terms)))
	}
	if n < v.baseLen {
		panic(fmt.Sprintf("vocab: truncate to %d below published fence %d", n, v.baseLen))
	}
	for _, t := range v.terms[n:] {
		delete(v.byTerm, t)
	}
	v.terms = v.terms[:n]
}

// viewOverlayMax bounds how many post-base terms a View carries in its
// private overlay map before View rebuilds the shared base. Small enough
// that per-publication overlay copying is cheap, large enough that the
// O(size) base rebuild is rare under sustained ingestion.
const viewOverlayMax = 64

// View captures an immutable snapshot of the vocabulary: ids [0, Size())
// at the moment of the call. Views are value types safe for concurrent
// use by any number of readers while the writer keeps Adding — reader
// lookups resolve against the view's fenced term slice and maps, never
// against the live byTerm map. Call View only from the writer, at a
// publication point (after a mutation commits).
func (v *Vocabulary) View() View {
	if v.base == nil || len(v.terms)-v.baseLen > viewOverlayMax {
		base := make(map[string]TermID, len(v.byTerm))
		for t, id := range v.byTerm {
			base[t] = id
		}
		v.base = base
		v.baseLen = len(v.terms)
	}
	var over map[string]TermID
	if n := len(v.terms) - v.baseLen; n > 0 {
		over = make(map[string]TermID, n)
		for i, t := range v.terms[v.baseLen:] {
			over[t] = TermID(v.baseLen + i)
		}
	}
	return View{terms: v.terms[:len(v.terms):len(v.terms)], base: v.base, over: over}
}

// View is a fenced, immutable snapshot of a Vocabulary. The zero value is
// an empty vocabulary. All methods are safe for concurrent use; a View
// never observes terms added after it was captured, so scoring against it
// is stable no matter how much the writer grows the live vocabulary.
type View struct {
	terms []string          // ids [0, len(terms)) are visible
	base  map[string]TermID // shared immutable map, ids [0, baseLen)
	over  map[string]TermID // per-view overlay, ids [baseLen, len(terms))
}

// Size returns the number of terms visible in the snapshot.
func (v View) Size() int { return len(v.terms) }

// Lookup returns the TermID for term and whether it is within the
// snapshot's fence.
func (v View) Lookup(term string) (TermID, bool) {
	if id, ok := v.over[term]; ok {
		return id, true
	}
	id, ok := v.base[term]
	if !ok || int(id) >= len(v.terms) {
		return 0, false
	}
	return id, true
}

// Term returns the string for id. It panics on an id outside the fence.
func (v View) Term(id TermID) string {
	if int(id) < 0 || int(id) >= len(v.terms) {
		panic(fmt.Sprintf("vocab: unknown term id %d", id))
	}
	return v.terms[id]
}

// Doc is a bag of terms: sorted unique TermIDs with positive frequencies.
// The zero value is the empty document.
type Doc struct {
	terms []TermID
	freqs []int32
	total int64 // sum of freqs, the |d| of Equation 3
}

// NewDoc builds a Doc from a term-frequency map.
func NewDoc(tf map[TermID]int32) Doc {
	terms := make([]TermID, 0, len(tf))
	for t, f := range tf {
		if f > 0 {
			terms = append(terms, t)
		}
	}
	sort.Slice(terms, func(i, j int) bool { return terms[i] < terms[j] })
	freqs := make([]int32, len(terms))
	var total int64
	for i, t := range terms {
		freqs[i] = tf[t]
		total += int64(tf[t])
	}
	return Doc{terms: terms, freqs: freqs, total: total}
}

// DocFromTerms builds a Doc where each listed term has frequency 1
// (duplicates accumulate): it sorts a copy of terms and counts its runs,
// keeping the copy as the Doc's terms.
func DocFromTerms(terms []TermID) Doc {
	sorted := append(make([]TermID, 0, len(terms)), terms...)
	slices.Sort(sorted)
	unique := 0
	for i, t := range sorted {
		if i == 0 || t != sorted[i-1] {
			unique++
		}
	}
	d := Doc{terms: sorted[:0], freqs: make([]int32, 0, unique), total: int64(len(terms))}
	for _, t := range sorted {
		if n := len(d.terms); n > 0 && d.terms[n-1] == t {
			d.freqs[n-1]++
			continue
		}
		d.terms = append(d.terms, t)
		d.freqs = append(d.freqs, 1)
	}
	return d
}

// DocFromSorted builds a Doc from strictly ascending terms and their
// frequencies, each positive, keeping both slices: the caller hands them
// over and validates them (a decoder rejects input that breaks either
// rule).
func DocFromSorted(terms []TermID, freqs []int32) Doc {
	d := Doc{terms: terms, freqs: freqs}
	for _, f := range freqs {
		d.total += int64(f)
	}
	return d
}

// Unique returns the number of distinct terms.
func (d Doc) Unique() int { return len(d.terms) }

// Len returns the total number of term occurrences (|d| in Equation 3).
func (d Doc) Len() int64 { return d.total }

// IsEmpty reports whether the document has no terms.
func (d Doc) IsEmpty() bool { return len(d.terms) == 0 }

// Freq returns the frequency of term t (zero when absent). It uses the
// closure-free slices.BinarySearch rather than sort.Search, whose
// per-probe closure call is measurable on the query hot path (Freq runs
// once per (candidate, user term) pair).
func (d Doc) Freq(t TermID) int32 {
	if i, ok := slices.BinarySearch(d.terms, t); ok {
		return d.freqs[i]
	}
	return 0
}

// Has reports whether term t occurs in the document.
func (d Doc) Has(t TermID) bool { return d.Freq(t) > 0 }

// Terms returns the distinct terms in ascending order. The returned slice
// must not be modified.
func (d Doc) Terms() []TermID { return d.terms }

// Freqs returns the frequencies parallel to Terms(). The returned slice
// must not be modified. It exists so scoring loops can merge-join two
// sorted documents instead of binary-searching per term.
func (d Doc) Freqs() []int32 { return d.freqs }

// ForEach calls fn with every (term, freq) pair in ascending term order.
func (d Doc) ForEach(fn func(t TermID, f int32)) {
	for i, t := range d.terms {
		fn(t, d.freqs[i])
	}
}

// MergeTerms returns a new Doc equal to d with each term of add inserted at
// frequency 1 if absent (existing frequencies are retained). This models
// "ox.d ∪ W'" from Definition 1: candidate keywords extend the object's
// existing text description.
//
// It is MergeTermsInto's linear merge, into fresh buffers, of a sorted and
// deduplicated copy of add.
func (d Doc) MergeTerms(add []TermID) Doc {
	sorted := append(make([]TermID, 0, len(add)), add...)
	slices.Sort(sorted)
	sorted = slices.Compact(sorted)
	n := len(d.terms) + len(sorted)
	return d.MergeTermsInto(sorted, &MergeScratch{terms: make([]TermID, 0, n), freqs: make([]int32, 0, n)})
}

// MergeScratch holds the reusable buffers of Doc.MergeTermsInto. The zero
// value is ready to use.
type MergeScratch struct {
	terms []TermID
	freqs []int32
}

// MergeTermsInto is MergeTerms with caller-supplied scratch: the returned
// Doc aliases the scratch's buffers and stays valid only until its next
// use. When add is strictly ascending (the combination enumerator's
// output) the merge is one linear pass — allocation-free on a warm
// scratch; otherwise it falls back to MergeTerms.
func (d Doc) MergeTermsInto(add []TermID, s *MergeScratch) Doc {
	for i := 1; i < len(add); i++ {
		if add[i] <= add[i-1] {
			return d.MergeTerms(add)
		}
	}
	if cap(s.terms) < len(d.terms)+len(add) {
		n := len(d.terms) + len(add)
		s.terms = make([]TermID, 0, n)
		s.freqs = make([]int32, 0, n)
	}
	terms, freqs := s.terms[:0], s.freqs[:0]
	total := d.total
	i, j := 0, 0
	for i < len(d.terms) || j < len(add) {
		switch {
		case j >= len(add) || (i < len(d.terms) && d.terms[i] < add[j]):
			terms = append(terms, d.terms[i])
			freqs = append(freqs, d.freqs[i])
			i++
		case i >= len(d.terms) || add[j] < d.terms[i]:
			terms = append(terms, add[j])
			freqs = append(freqs, 1)
			total++
			j++
		default: // term present in both: the existing frequency wins
			terms = append(terms, d.terms[i])
			freqs = append(freqs, d.freqs[i])
			i++
			j++
		}
	}
	s.terms, s.freqs = terms, freqs
	return Doc{terms: terms, freqs: freqs, total: total}
}

// Equal reports whether two documents have identical terms and frequencies.
func (d Doc) Equal(other Doc) bool {
	if len(d.terms) != len(other.terms) {
		return false
	}
	for i := range d.terms {
		if d.terms[i] != other.terms[i] || d.freqs[i] != other.freqs[i] {
			return false
		}
	}
	return true
}
