package invfile

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/storage"
	"repro/internal/vocab"
)

func TestFileAddPostings(t *testing.T) {
	f := New()
	f.Add(3, Posting{Entry: 0, MaxW: 0.5, MinW: 0.1})
	f.Add(3, Posting{Entry: 2, MaxW: 0.7, MinW: 0})
	f.Add(1, Posting{Entry: 1, MaxW: 0.2, MinW: 0.2})

	if f.NumTerms() != 2 {
		t.Errorf("NumTerms = %d, want 2", f.NumTerms())
	}
	if got := f.Postings(3); len(got) != 2 {
		t.Errorf("postings(3) = %v", got)
	}
	if got := f.Postings(99); got != nil {
		t.Errorf("postings for absent term = %v, want nil", got)
	}
	terms := f.Terms()
	if len(terms) != 2 || terms[0] != 1 || terms[1] != 3 {
		t.Errorf("Terms = %v, want [1 3]", terms)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := New()
	f.Add(5, Posting{Entry: 1, MaxW: 1.5, MinW: 0.25})
	f.Add(5, Posting{Entry: 4, MaxW: 2.0, MinW: 0})
	f.Add(0, Posting{Entry: 0, MaxW: 0.125, MinW: 0.125})
	f.Add(1000, Posting{Entry: 9, MaxW: 3.5, MinW: 1})

	got, err := Decode(f.Encode(true))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumTerms() != f.NumTerms() {
		t.Fatalf("NumTerms = %d, want %d", got.NumTerms(), f.NumTerms())
	}
	for _, tm := range f.Terms() {
		want := f.Postings(tm)
		have := got.Postings(tm)
		if len(have) != len(want) {
			t.Fatalf("term %d: %d postings, want %d", tm, len(have), len(want))
		}
		for i := range want {
			if have[i] != want[i] {
				t.Errorf("term %d posting %d = %+v, want %+v", tm, i, have[i], want[i])
			}
		}
	}
}

func TestEncodeSortsUnorderedPostings(t *testing.T) {
	f := New()
	f.Add(1, Posting{Entry: 5, MaxW: 0.5, MinW: 0})
	f.Add(1, Posting{Entry: 2, MaxW: 0.3, MinW: 0.1})
	got, err := Decode(f.Encode(true))
	if err != nil {
		t.Fatal(err)
	}
	ps := got.Postings(1)
	if ps[0].Entry != 2 || ps[1].Entry != 5 {
		t.Errorf("postings not sorted after round-trip: %v", ps)
	}
}

func TestDecodeCorrupt(t *testing.T) {
	if _, err := Decode([]byte{0x80}); err == nil {
		t.Error("corrupt buffer should error")
	}
	f := New()
	f.Add(1, Posting{Entry: 1, MaxW: 1, MinW: 0})
	buf := f.Encode(true)
	if _, err := Decode(buf[:len(buf)-3]); err == nil {
		t.Error("truncated buffer should error")
	}
	// A bit-flipped term count must be rejected before it sizes an
	// allocation (data pages are unchecksummed): version byte, then a
	// varint claiming ~2^62 terms in a 12-byte buffer.
	huge := append([]byte{versionMinMax},
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x3f, 0x01, 0x01)
	if _, err := Decode(huge); err == nil {
		t.Error("absurd term count should error, not allocate")
	}
}

func TestEmptyFileRoundTrip(t *testing.T) {
	got, err := Decode(New().Encode(true))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumTerms() != 0 {
		t.Errorf("NumTerms = %d, want 0", got.NumTerms())
	}
}

func TestForEachOrder(t *testing.T) {
	f := New()
	for _, tm := range []vocab.TermID{7, 3, 9, 1} {
		f.Add(tm, Posting{Entry: 0, MaxW: 1})
	}
	var order []vocab.TermID
	f.ForEach(func(tm vocab.TermID, _ []Posting) { order = append(order, tm) })
	for i := 1; i < len(order); i++ {
		if order[i-1] >= order[i] {
			t.Fatalf("ForEach order not ascending: %v", order)
		}
	}
}

// Property: random files survive the round trip exactly.
func TestRoundTripRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		f := New()
		nTerms := rng.Intn(40)
		seen := map[vocab.TermID]map[int32]bool{}
		for i := 0; i < nTerms; i++ {
			tm := vocab.TermID(rng.Intn(500))
			if seen[tm] == nil {
				seen[tm] = map[int32]bool{}
			}
			n := 1 + rng.Intn(8)
			for j := 0; j < n; j++ {
				e := int32(rng.Intn(64))
				if seen[tm][e] {
					continue
				}
				seen[tm][e] = true
				f.Add(tm, Posting{Entry: e, MaxW: rng.Float64() * 5, MinW: rng.Float64()})
			}
		}
		got, err := Decode(f.Encode(true))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got.NumTerms() != f.NumTerms() {
			t.Fatalf("trial %d: term count mismatch", trial)
		}
		for _, tm := range f.Terms() {
			want := append([]Posting(nil), f.Postings(tm)...)
			have := got.Postings(tm)
			if len(have) != len(want) {
				t.Fatalf("trial %d term %d: posting count", trial, tm)
			}
			// Decode yields ascending entries; compare as sets via map.
			wm := map[int32]Posting{}
			for _, p := range want {
				wm[p.Entry] = p
			}
			for _, p := range have {
				if wm[p.Entry] != p {
					t.Fatalf("trial %d term %d: posting %+v mismatch", trial, tm, p)
				}
			}
		}
	}
}

func TestMaxOnlyEncodingDropsMinAndShrinks(t *testing.T) {
	f := New()
	for e := int32(0); e < 100; e++ {
		f.Add(1, Posting{Entry: e, MaxW: 0.5, MinW: 0.25})
	}
	full := f.Encode(true)
	slim := f.Encode(false)
	if len(slim) >= len(full) {
		t.Errorf("max-only encoding (%dB) should be smaller than min-max (%dB)", len(slim), len(full))
	}
	got, err := Decode(slim)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range got.Postings(1) {
		if p.MaxW != 0.5 || p.MinW != 0 {
			t.Fatalf("max-only posting = %+v, want MaxW 0.5, MinW 0", p)
		}
	}
}

// TestDecodeUnknownVersion: both readers refuse a version they do not
// write, and name the removed packed layout (3, 4) rather than calling it
// unknown.
func TestDecodeUnknownVersion(t *testing.T) {
	for version, want := range map[uint64]string{9: "unknown version", 3: "removed packed", 4: "removed packed"} {
		buf := storage.AppendUvarint(nil, version)
		_, err := Decode(buf)
		_, _, serr := DecodeSumsInto(buf, 1, nil, nil, nil, &SumScratch{})
		for _, e := range []error{err, serr} {
			if e == nil || !strings.Contains(e.Error(), want) {
				t.Errorf("version %d: error %v, want one mentioning %q", version, e, want)
			}
		}
	}
}
