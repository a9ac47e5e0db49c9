package invfile

import (
	"bytes"
	"math"
	"testing"
	"time"

	"repro/internal/vocab"
)

// fuzzSeedFiles builds a few deterministic files spanning the codec's
// corners: empty terms boundary, single posting, dense multi-term lists,
// duplicate entries (zero deltas), wide entry gaps, and the two-byte
// deltas of a node with more than 128 entries in runs both wanted and
// skipped by FuzzDecodeSumsInto's term sets.
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

// fuzzSeedBuffers returns every seed file in both record versions, each
// followed by a copy relabelled with the removed packed layout's version
// (1→3, 2→4) — the buffers the rejection branch must refuse, not panic on.
func fuzzSeedBuffers() [][]byte {
	var out [][]byte
	for _, sf := range fuzzSeedFiles() {
		for _, includeMin := range []bool{false, true} {
			enc := sf.Encode(includeMin)
			removed := bytes.Clone(enc)
			removed[0] += 2
			out = append(out, enc, removed)
		}
	}
	return out
}

// FuzzDecode: no input may panic the decoder, and any buffer that decodes
// must re-encode to a canonical form that is a decode↔encode fixpoint.
func FuzzDecode(f *testing.F) {
	for _, buf := range fuzzSeedBuffers() {
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		file, err := Decode(buf)
		if err != nil {
			return
		}
		for _, includeMin := range []bool{false, true} {
			enc := file.Encode(includeMin)
			f2, err := Decode(enc)
			if err != nil {
				t.Fatalf("re-decoding canonical encoding: %v", err)
			}
			if !bytes.Equal(enc, f2.Encode(includeMin)) {
				t.Fatal("encode is not a decode↔encode fixpoint")
			}
		}
	})
}

// FuzzDecodeSumsInto: the streaming sum path must never panic on arbitrary
// input, and on every buffer that decodes it must agree with the
// decoded-file reference (SumsInto), which the traversal treats as
// interchangeable.
func FuzzDecodeSumsInto(f *testing.F) {
	for _, buf := range fuzzSeedBuffers() {
		f.Add(buf, uint16(199))
	}
	floorOf, maxTerms, minTerms := fuzzSumsQuery()
	f.Fuzz(func(t *testing.T, buf []byte, entries uint16) {
		nEntries := int(entries)%2048 + 1
		var scratch SumScratch
		gotMax, gotMin, err := DecodeSumsInto(buf, nEntries, maxTerms, minTerms, floorOf, &scratch)
		file, derr := Decode(buf)
		if derr != nil {
			return // corrupt input: any error is fine, only panics are bugs
		}
		if err != nil {
			// The streaming path may reject entries the decoded file also
			// rejects (out-of-range entry ids); it must not reject a
			// buffer whose decoded form sums cleanly.
			var ref SumScratch
			if _, _, rerr := file.SumsInto(nEntries, maxTerms, minTerms, floorOf, &ref); rerr == nil {
				t.Fatalf("streaming sums failed (%v) where decoded-file sums succeed", err)
			}
			return
		}
		var ref SumScratch
		wantMax, wantMin, rerr := file.SumsInto(nEntries, maxTerms, minTerms, floorOf, &ref)
		if rerr != nil {
			t.Fatalf("decoded-file sums failed (%v) where streaming sums succeeded", rerr)
		}
		compareSums(t, "max", gotMax, wantMax)
		compareSums(t, "min", gotMin, wantMin)
	})
}

// fuzzSumsQuery is the floor function and the term sets FuzzDecodeSumsInto
// sums every input for.
func fuzzSumsQuery() (floorOf func(vocab.TermID) float64, maxTerms, minTerms []vocab.TermID) {
	floorOf = func(tm vocab.TermID) float64 { return float64(tm%3) * 0.125 }
	return floorOf, []vocab.TermID{1, 3, 7, 9000}, []vocab.TermID{2, 3}
}

// TestDecodeSumsIntoRejectsOverlongCount: a 9-byte record whose wanted
// term claims about 3·10¹⁰ postings must fail at once. The count is
// checked against the bytes left before any posting is read; the posting
// loop once ignored the decoder's sticky error and iterated the whole
// count. The record is also in the FuzzDecodeSumsInto corpus.
func TestDecodeSumsIntoRejectsOverlongCount(t *testing.T) {
	buf := []byte{0x01, 0x03, 0x01, 0xf0, 0xf0, 0xf0, 0xf0, 0xf0, 0x00}
	floorOf, maxTerms, minTerms := fuzzSumsQuery()
	done := make(chan error, 1)
	go func() {
		_, _, err := DecodeSumsInto(buf, 110, maxTerms, minTerms, floorOf, &SumScratch{})
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
		if got[i] != want[i] {
			t.Fatalf("%s sums[%d] = %v, want %v", label, i, got[i], want[i])
		}
	}
}
