package invfile

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/storage"
	"repro/internal/vocab"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := New()
	f.Add(5, Posting{Entry: 1, MaxW: 1.5, MinW: 0.25})
	f.Add(5, Posting{Entry: 4, MaxW: 2.0, MinW: 0})
	f.Add(0, Posting{Entry: 0, MaxW: 0.125, MinW: 0.125})
	f.Add(1000, Posting{Entry: 9, MaxW: 3.5, MinW: 1})

	got, err := Decode(f.Encode(true, 16))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Terms()) != len(f.Terms()) {
		t.Fatalf("%d terms, want %d", len(got.Terms()), len(f.Terms()))
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

func TestDecodeCorrupt(t *testing.T) {
	if _, err := Decode([]byte{0x80}); err == nil {
		t.Error("corrupt buffer should error")
	}
	f := New()
	f.Add(1, Posting{Entry: 1, MaxW: 1, MinW: 0})
	buf := f.Encode(true, 4)
	if _, err := Decode(buf[:len(buf)-3]); err == nil {
		t.Error("truncated buffer should error")
	}
	// A bit-flipped term count must be rejected before it sizes an
	// allocation (data pages are unchecksummed): version byte, then a
	// varint claiming ~2^62 terms in a 12-byte buffer.
	huge := append([]byte{byte(layout{hasMin: true, w: 1}.version())},
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x3f, 0x01, 0x01)
	if _, err := Decode(huge); err == nil {
		t.Error("absurd term count should error, not allocate")
	}
	// Every check of the term directory: descending or repeated terms
	// (summed in stored order, they would not agree with the decoded file),
	// a term without postings, and counts whose postings do not fill the
	// rest of the record exactly — short of it, or past it.
	for name, c := range map[string]struct {
		headers [][2]uint64 // term, count
		trail   int         // bytes after the postings the counts give
	}{
		"descending":    {[][2]uint64{{7, 1}, {3, 1}}, 0},
		"repeated":      {[][2]uint64{{3, 1}, {3, 1}}, 0},
		"empty term":    {[][2]uint64{{3, 1}, {7, 0}}, 0},
		"trailing byte": {[][2]uint64{{3, 1}, {7, 1}}, 1},
		"short body":    {[][2]uint64{{3, 1}, {7, 2}}, -1},
		// Two-byte term ids: headers that next reads on its fast path.
		"repeated wide": {[][2]uint64{{200, 1}, {200, 1}}, 0},
		"empty wide":    {[][2]uint64{{200, 1}, {300, 0}}, 0},
	} {
		l := layout{w: 1}
		rec := storage.AppendUvarint([]byte{byte(l.version())}, uint64(len(c.headers)))
		postings := c.trail
		for _, h := range c.headers {
			rec = appendTerm(rec, vocab.TermID(h[0]), int(h[1]))
			postings += int(h[1]) * l.stride()
		}
		rec = append(rec, make([]byte, max(postings, 0))...)
		if _, err := Decode(rec); err == nil {
			t.Errorf("%s: Decode accepted it", name)
		}
		if _, _, err := DecodeSumsInto(rec, 1, []vocab.TermID{3, 7}, nil, 0, 0, &SumScratch{}); err == nil {
			t.Errorf("%s: DecodeSumsInto accepted it", name)
		}
		if _, err := Aggregate(rec, 1); err == nil {
			t.Errorf("%s: Aggregate accepted it", name)
		}
		if _, err := ReplaceEntry(rec, 0, nil); err == nil {
			t.Errorf("%s: ReplaceEntry accepted it", name)
		}
	}
}

func TestEmptyFileRoundTrip(t *testing.T) {
	got, err := Decode(New().Encode(true, 32))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Terms()) != 0 {
		t.Errorf("%d terms, want 0", len(got.Terms()))
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
		got, err := Decode(f.Encode(true, 64))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(got.Terms()) != len(f.Terms()) {
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
	full := f.Encode(true, 100)
	slim := f.Encode(false, 100)
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

// TestDecodeUnknownVersion: every reader refuses a version it does not
// read, and names the layouts this one replaced — the varint-delta layout
// (1, 2) and the removed packed one (3, 4) — rather than calling them
// unknown.
func TestDecodeUnknownVersion(t *testing.T) {
	for version, want := range map[uint64]string{11: "unknown version", 1: "varint-delta", 2: "varint-delta", 3: "removed packed", 4: "removed packed"} {
		buf := storage.AppendUvarint(nil, version)
		_, err := Decode(buf)
		_, _, serr := DecodeSumsInto(buf, 1, nil, nil, 0, 0, &SumScratch{})
		_, aerr := Aggregate(buf, 1)
		_, rerr := ReplaceEntry(buf, 0, nil)
		for _, e := range []error{err, serr, aerr, rerr} {
			if e == nil || !strings.Contains(e.Error(), want) {
				t.Errorf("version %d: error %v, want one mentioning %q", version, e, want)
			}
		}
	}
}

// TestVersionsNameTheirLayout: the six versions of the fixed-stride layout
// read back as the layout that wrote them.
func TestVersionsNameTheirLayout(t *testing.T) {
	for _, fanout := range []int{4, 256, 257, 1 << 16, 1<<16 + 1} {
		for _, includeMin := range []bool{false, true} {
			l := layoutFor(includeMin, fanout)
			got, err := layoutOf(l.version())
			if err != nil || got != l {
				t.Errorf("fanout %d min %v: version %d reads as %+v (%v), want %+v", fanout, includeMin, l.version(), got, err, l)
			}
		}
	}
}
