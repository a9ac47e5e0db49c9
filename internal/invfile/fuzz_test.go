package invfile

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/vocab"
)

// fuzzSeedFiles builds a few deterministic files spanning the codec's
// corners: empty terms boundary, single posting, dense multi-term lists,
// duplicate entries (zero deltas), wide entry gaps (a four-byte delta),
// and the entries past 128 of a node of more than 128 entries in runs both
// wanted and skipped by the sums' term sets.
func fuzzSeedFiles() []*File {
	small := New()
	small.Add(3, Posting{Entry: 0, MaxW: 1.5, MinW: 0.5})

	dense := New()
	for t := vocab.TermID(0); t < 5; t++ {
		for e := int32(0); e < 40; e++ {
			dense.Add(t, Posting{Entry: e, MaxW: float64(t+1) * 0.25, MinW: 0.1})
		}
	}

	dup := New()
	for i := 0; i < 20; i++ {
		dup.Add(7, Posting{Entry: int32(i / 3), MaxW: 2.0, MinW: 0.25})
	}

	sparse := New()
	sparse.Add(1, Posting{Entry: 0, MaxW: 3})
	sparse.Add(1, Posting{Entry: 1 << 20, MaxW: 4})
	sparse.Add(9000, Posting{Entry: 5, MaxW: 0.125, MinW: 0.125})

	wide := New()
	for _, e := range []int32{3, 140, 141, 199} {
		wide.Add(5, Posting{Entry: e, MaxW: 0.5, MinW: 0.25})
	}
	for _, e := range []int32{0, 128, 199} {
		wide.Add(7, Posting{Entry: e, MaxW: 1.25, MinW: 0.375})
	}
	wide.Add(9, Posting{Entry: 150, MaxW: 2})

	return []*File{small, dense, dup, sparse, wide}
}

// narrowest is the layout with the narrowest deltas that holds every
// entry of f.
func narrowest(f *File, includeMin bool) layout {
	top := int32(0)
	for _, tm := range f.Terms() {
		for _, p := range f.Postings(tm) {
			top = max(top, p.Entry)
		}
	}
	return layoutFor(includeMin, int(top)+1)
}

// fuzzSeedBuffers returns every seed file in both posting formats at its
// narrowest delta width, each followed by a copy relabelled with a version
// of a replaced layout (1 to 4) — the buffers the rejection branch must
// refuse, not panic on — and then the wide file at two-byte deltas.
func fuzzSeedBuffers() [][]byte {
	var out [][]byte
	for _, sf := range fuzzSeedFiles() {
		for _, includeMin := range []bool{false, true} {
			enc := sf.referenceEncode(narrowest(sf, includeMin))
			replaced := bytes.Clone(enc)
			replaced[0] = 1 + (enc[0]-firstVersion)%4
			out = append(out, enc, replaced)
		}
	}
	wide := fuzzSeedFiles()[4]
	return append(out, wide.Encode(false, 1<<16), wide.Encode(true, 1<<16))
}

// bufLayout is the layout of a record Decode accepted.
func bufLayout(buf []byte) layout {
	d, _ := openDirectory(buf)
	return d.layout
}

// checkRecord holds the readers to one another on buf: they accept
// exactly the same records, DecodeSumsInto and a Dir's SumsInto equal the
// reference sums over the decoded file bit for bit, Aggregate and
// ReplaceEntry equal their decoded-file references, and a decoded record
// re-encodes (referenceEncode) to a decode↔encode fixpoint in its layout.
func checkRecord(t *testing.T, buf []byte, nEntries int, entry int32, agg []EntryWeight) {
	t.Helper()
	checkSums(t, buf, nEntries)
	checkAggregate(t, buf, nEntries)
	checkReplaceEntry(t, buf, entry, agg)
	file, err := Decode(buf)
	if err != nil {
		return
	}
	l := bufLayout(buf)
	enc := file.referenceEncode(l)
	f2, err := Decode(enc)
	if err != nil {
		t.Fatalf("re-decoding canonical encoding: %v", err)
	}
	if !bytes.Equal(enc, f2.referenceEncode(l)) {
		t.Fatal("encode is not a decode↔encode fixpoint")
	}
}

// reusedScratch carries one DecodeSumsInto scratch from input to input,
// so its reuse of the arrays a larger or smaller record left is checked
// too. Fuzz and seed inputs run one at a time within a process.
var reusedScratch SumScratch

// checkSums requires OpenDir to accept buf exactly when Decode does, and
// DecodeSumsInto (with a fresh and a reused scratch) and the Dir's SumsInto
// to fail exactly when the reference sums over the decoded file do (on a
// directory Decode rejects, or a summed posting out of the node's entries)
// and otherwise to equal them bit for bit. So must the Dir detached from
// buf, reading its runs by range from a copy of it. DirBytes must weigh
// the Dir exactly.
func checkSums(t *testing.T, buf []byte, nEntries int) {
	t.Helper()
	maxTerms, minTerms, maxStart, minStart := fuzzSumsQuery()
	var scratch, dirScratch SumScratch
	gotMax, gotMin, err := DecodeSumsInto(buf, nEntries, maxTerms, minTerms, maxStart, minStart, &scratch)
	reMax, reMin, reErr := DecodeSumsInto(buf, nEntries, maxTerms, minTerms, maxStart, minStart, &reusedScratch)
	if (err == nil) != (reErr == nil) {
		t.Fatalf("DecodeSumsInto error %v with a fresh scratch, %v with a reused one", err, reErr)
	}
	if err == nil {
		compareSums(t, "reused max", reMax, gotMax)
		compareSums(t, "reused min", reMin, gotMin)
	}
	dir, oerr := OpenDir(buf)
	file, derr := Decode(buf)
	if (oerr == nil) != (derr == nil) {
		t.Fatalf("OpenDir error %v, Decode error %v: want both or neither", oerr, derr)
	}
	if derr != nil {
		if err == nil {
			t.Fatalf("DecodeSumsInto accepted a record Decode rejects (%v)", derr)
		}
		return
	}
	if got, want := DirBytes(buf), int64(4*(len(dir.terms)+len(dir.starts)))+dirHeader; got != want {
		t.Fatalf("DirBytes = %d, the Dir holds %d", got, want)
	}
	dirMax, dirMin, dirErr := dir.SumsInto(nEntries, maxTerms, minTerms, maxStart, minStart, &dirScratch)
	detached, _ := OpenDir(buf)
	detached.Detach(rangeReader(bytes.Clone(buf)))
	var detachedScratch SumScratch
	detMax, detMin, detErr := detached.SumsInto(nEntries, maxTerms, minTerms, maxStart, minStart, &detachedScratch)
	wantMax, wantMin, rerr := referenceSums(file, nEntries, maxTerms, minTerms, maxStart, minStart)
	if (err == nil) != (rerr == nil) || (dirErr == nil) != (rerr == nil) || (detErr == nil) != (rerr == nil) {
		t.Fatalf("DecodeSumsInto error %v, Dir.SumsInto error %v, detached %v, reference error %v: want all or none", err, dirErr, detErr, rerr)
	}
	if err == nil {
		compareSums(t, "max", gotMax, wantMax)
		compareSums(t, "min", gotMin, wantMin)
		compareSums(t, "dir max", dirMax, wantMax)
		compareSums(t, "dir min", dirMin, wantMin)
		compareSums(t, "detached max", detMax, dirMax)
		compareSums(t, "detached min", detMin, dirMin)
	}
}

// rangeReader reads rec by range, copying into dst as a file-resident
// record is read.
func rangeReader(rec []byte) func(dst []byte, off int) ([]byte, error) {
	return func(dst []byte, off int) ([]byte, error) {
		if off < 0 || off+len(dst) > len(rec) {
			return nil, fmt.Errorf("no bytes %d to %d in a %d-byte record", off, off+len(dst), len(rec))
		}
		return dst[:copy(dst, rec[off:])], nil
	}
}

// TreeRecord is one posting record of a built tree and its node's entry
// count.
type TreeRecord struct {
	Buf     []byte
	Entries int
}

// TreeRecords returns every posting record of the built trees the fuzzers
// also seed from. Building a tree takes irtree, which imports this
// package, so the external test package sets it (tree_records_test.go).
var TreeRecords func(testing.TB) []TreeRecord

// FuzzDecode: no input may panic a reader, and on every input the readers
// agree (checkRecord).
func FuzzDecode(f *testing.F) {
	for _, buf := range fuzzSeedBuffers() {
		f.Add(buf)
	}
	for _, r := range TreeRecords(f) {
		f.Add(r.Buf)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		checkRecord(t, buf, 200, 3, []EntryWeight{{Term: 3, MaxW: 1, MinW: 0.5}})
	})
}

// FuzzDecodeSumsInto: on every input, for any node size, the two sum paths
// the traversal treats as interchangeable — DecodeSumsInto and a Dir —
// agree with the decoded-file reference, and with the other readers.
func FuzzDecodeSumsInto(f *testing.F) {
	for _, buf := range fuzzSeedBuffers() {
		f.Add(buf, uint16(199))
	}
	for _, r := range TreeRecords(f) {
		f.Add(r.Buf, uint16(r.Entries-1))
	}
	f.Fuzz(func(t *testing.T, buf []byte, entries uint16) {
		checkRecord(t, buf, int(entries)%2048+1, int32(entries%256), nil)
	})
}

// fuzzSumsQuery is the term sets and sum starts FuzzDecodeSumsInto reads
// every record with.
func fuzzSumsQuery() (maxTerms, minTerms []vocab.TermID, maxStart, minStart float64) {
	return []vocab.TermID{1, 3, 7, 9000}, []vocab.TermID{2, 3}, 0.375, 0.25
}

// TestDecodeSumsIntoRejectsOverlongCount: a 9-byte record whose wanted
// term claims about 3·10¹⁰ postings must fail at once. The count is
// checked against the bytes left before any posting is read; the posting
// loop once ignored the decoder's sticky error and iterated the whole
// count. The record (in the layout before this one) is in the
// FuzzDecodeSumsInto corpus.
func TestDecodeSumsIntoRejectsOverlongCount(t *testing.T) {
	buf := []byte{byte(layout{w: 1}.version()), 0x03, 0x01, 0xf0, 0xf0, 0xf0, 0xf0, 0xf0, 0x00}
	maxTerms, minTerms, maxStart, minStart := fuzzSumsQuery()
	done := make(chan error, 1)
	go func() {
		_, _, err := DecodeSumsInto(buf, 110, maxTerms, minTerms, maxStart, minStart, &SumScratch{})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("a term count the record cannot hold decoded without error")
		}
	case <-time.After(time.Second):
		t.Fatal("DecodeSumsInto still running after 1 s on a 9-byte record")
	}
}

// compareSums requires bit-agreement except that any NaN matches any NaN
// (identical arithmetic order makes the paths agree; NaN payloads are the
// one thing the hardware does not promise).
func compareSums(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s sums length %d, want %d", label, len(got), len(want))
	}
	for i := range got {
		if math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s sums[%d] = %v, want %v", label, i, got[i], want[i])
		}
	}
}
