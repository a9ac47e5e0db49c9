package invfile

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/vocab"
)

// replaceEntryReference is the oracle ReplaceEntry's bytes are held to:
// the decoded file with every posting of entry removed and agg Added, its
// merge left to freeze. For a file Encode wrote, whose entries ascend, this
// is the file with the entry's postings replaced.
func replaceEntryReference(f *File, entry int32, agg []EntryWeight) *File {
	rebuilt := New()
	for _, tm := range f.Terms() {
		for _, p := range f.Postings(tm) {
			if p.Entry != entry {
				rebuilt.push(tm, p)
			}
		}
	}
	rebuilt.starts = append(rebuilt.starts, int32(len(rebuilt.postings)))
	for _, a := range agg {
		rebuilt.Add(a.Term, Posting{Entry: entry, MaxW: a.MaxW, MinW: a.MinW})
	}
	return rebuilt
}

// checkReplaceEntry requires ReplaceEntry on buf to fail exactly when
// Decode does or the entry does not fit buf's layout, and otherwise to
// return the reference's encoding in buf's layout, exactly sized, leaving
// buf as it was.
func checkReplaceEntry(t *testing.T, buf []byte, entry int32, agg []EntryWeight) []byte {
	t.Helper()
	before := bytes.Clone(buf)
	got, err := ReplaceEntry(buf, entry, agg)
	if !bytes.Equal(buf, before) {
		t.Fatalf("ReplaceEntry(%d, %v) modified its input", entry, agg)
	}
	f, derr := Decode(buf)
	if derr == nil && !bufLayout(buf).fits(entry) {
		derr = fmt.Errorf("entry %d does not fit", entry)
	}
	if (err == nil) != (derr == nil) {
		t.Fatalf("ReplaceEntry error %v, Decode or fit error %v: want both or neither", err, derr)
	}
	if derr != nil {
		return nil
	}
	l := bufLayout(buf)
	if want := replaceEntryReference(f, entry, agg).referenceEncode(l); !bytes.Equal(got, want) {
		t.Fatalf("ReplaceEntry(%d, %v) (%+v): bytes differ from the reference\n got %x\nwant %x", entry, agg, l, got, want)
	}
	if cap(got) != len(got) {
		t.Fatalf("ReplaceEntry(%d, %v): a %d-byte result with capacity %d", entry, agg, len(got), cap(got))
	}
	return got
}

// checkReplaceEntryFile runs checkReplaceEntry on f encoded for a tree of
// the given fanout in both posting formats and returns the min-max result.
func checkReplaceEntryFile(t *testing.T, f *File, fanout int, entry int32, agg []EntryWeight) []byte {
	t.Helper()
	checkReplaceEntry(t, f.Encode(false, fanout), entry, agg)
	return checkReplaceEntry(t, f.Encode(true, fanout), entry, agg)
}

func TestReplaceEntryNamedCases(t *testing.T) {
	// Terms 10, 20, 30; entry 1 is the only posting of term 20.
	file := func() *File {
		f := New()
		f.Add(10, Posting{Entry: 0, MaxW: 1, MinW: 0.5})
		f.Add(10, Posting{Entry: 1, MaxW: 2, MinW: 0})
		f.Add(10, Posting{Entry: 3, MaxW: 3, MinW: 0.25})
		f.Add(20, Posting{Entry: 1, MaxW: 4, MinW: 4})
		f.Add(30, Posting{Entry: 0, MaxW: 5, MinW: 0})
		f.Add(30, Posting{Entry: 2, MaxW: 6, MinW: 1})
		return f
	}
	// Entries 0, 1, 130 and 300 under term 10: at fanout 301 deltas take
	// two bytes.
	wide := func() *File {
		f := file()
		f.Add(10, Posting{Entry: 130, MaxW: 7, MinW: 0.5})
		f.Add(10, Posting{Entry: 300, MaxW: 8, MinW: 0.5})
		return f
	}
	// Term 40 holds entries 3, 100 and 200: dropping 100 leaves a delta of
	// 197, the sum of the two it replaces.
	fold := func() *File {
		f := file()
		for _, e := range []int32{3, 100, 200} {
			f.Add(40, Posting{Entry: e, MaxW: 1, MinW: 1})
		}
		return f
	}
	w := func(tm vocab.TermID) EntryWeight { return EntryWeight{Term: tm, MaxW: 9, MinW: 0.125} }
	cases := []struct {
		name   string
		f      *File
		fanout int
		entry  int32
		agg    []EntryWeight
		terms  int // terms of the result
	}{
		{"same terms", file(), 4, 1, []EntryWeight{w(10), w(20)}, 3},
		{"entry absent from the file", file(), 8, 7, []EntryWeight{w(10), w(30)}, 3},
		{"entry between two others", file(), 4, 2, []EntryWeight{w(10)}, 3},
		{"lost term has no postings left", file(), 4, 1, []EntryWeight{w(10)}, 2},
		{"new terms before, between and after", file(), 4, 1, []EntryWeight{w(5), w(15), w(20), w(25), w(35)}, 7},
		{"empty aggregate", file(), 4, 1, nil, 2},
		{"empty aggregate, entry absent", file(), 16, 9, nil, 3},
		{"empty file", New(), 4, 0, []EntryWeight{w(1), w(2)}, 2},
		{"empty file, empty aggregate", New(), 4, 0, nil, 0},
		// Four-byte deltas hold any int32: the entry sorts first.
		{"negative entry", file(), 1 << 17, -1, []EntryWeight{w(10), w(40)}, 4},
		{"two-byte delta after a dropped posting", wide(), 301, 1, nil, 2},
		{"two-byte deltas around a new posting", wide(), 301, 200, []EntryWeight{w(10)}, 3},
		{"dropped posting folds its delta into the next", fold(), 256, 100, nil, 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := checkReplaceEntryFile(t, c.f, c.fanout, c.entry, c.agg)
			f, err := Decode(got)
			if err != nil {
				t.Fatalf("result does not decode: %v", err)
			}
			if len(f.Terms()) != c.terms {
				t.Fatalf("result has terms %v, want %d of them", f.Terms(), c.terms)
			}
		})
	}
	// An entry a layout cannot hold is refused, not wrapped.
	for _, c := range []struct {
		fanout int
		entry  int32
	}{{4, -1}, {4, 256}, {301, -1}, {301, 1 << 16}} {
		if _, err := ReplaceEntry(file().Encode(true, c.fanout), c.entry, nil); err == nil {
			t.Errorf("fanout %d: entry %d accepted", c.fanout, c.entry)
		}
	}
}

// randomAggregate draws a strictly ascending aggregate over terms
// [0, universe).
func randomAggregate(rng *rand.Rand, universe int) []EntryWeight {
	var agg []EntryWeight
	for tm := 0; tm < universe; tm++ {
		if rng.Intn(3) == 0 {
			maxW := rng.Float64()
			agg = append(agg, EntryWeight{Term: vocab.TermID(tm), MaxW: maxW, MinW: maxW * float64(rng.Intn(2))})
		}
	}
	return agg
}

func TestReplaceEntryMatchesRebuildRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for round := 0; round < 300; round++ {
		// File terms sit strictly inside the aggregate's universe, so the
		// aggregate brings terms before, between and after the file's.
		const universe = 40
		entries := 1 + rng.Intn(12)
		wide := round%3 == 0 // a sparse node past 128 entries: one- or two-byte deltas
		if wide {
			entries = 130 + rng.Intn(400)
		}
		f := New()
		for tm := 4; tm < universe-4; tm++ {
			if rng.Intn(2) == 0 {
				continue
			}
			for e := 0; e < entries; e++ {
				if wide && rng.Intn(40) == 0 || !wide && rng.Intn(3) != 0 {
					f.Add(vocab.TermID(tm), Posting{Entry: int32(e), MaxW: rng.Float64(), MinW: rng.Float64() / 2})
				}
			}
		}
		for i := 0; i < 4; i++ {
			entry := int32(rng.Intn(entries + 2)) // past the last one: absent
			checkReplaceEntryFile(t, f, entries, entry, randomAggregate(rng, universe))
		}
		checkReplaceEntryFile(t, f, entries, int32(rng.Intn(entries)), nil)
	}
}

// FuzzReplaceEntry: on every input, for any entry and any strictly
// ascending aggregate, ReplaceEntry fails exactly when Decode does or the
// entry does not fit, and otherwise returns the bytes of the reference,
// duplicate (term, entry) postings of a foreign file included; the other
// readers agree too (checkRecord).
func FuzzReplaceEntry(f *testing.F) {
	for i, sf := range fuzzSeedFiles() {
		f.Add(sf.referenceEncode(narrowest(sf, true)), uint16(i), []byte{1, 40, 8, 3, 16, 0, 200, 7, 7})
		f.Add(sf.referenceEncode(narrowest(sf, false)), uint16(5), []byte{})
	}
	for i, buf := range fuzzSeedBuffers() {
		f.Add(buf, uint16(128+i), []byte{4, 1, 1, 0, 2, 2})
	}
	for _, r := range TreeRecords(f) {
		f.Add(r.Buf, uint16(r.Entries-1), []byte{2, 40, 8, 5, 16, 0})
	}
	f.Fuzz(func(t *testing.T, buf []byte, entry uint16, seed []byte) {
		var agg []EntryWeight
		tm := vocab.TermID(-1)
		for ; len(seed) >= 3; seed = seed[3:] {
			tm += 1 + vocab.TermID(seed[0])
			agg = append(agg, EntryWeight{Term: tm, MaxW: float64(seed[1]) / 16, MinW: float64(seed[2]) / 32})
		}
		checkRecord(t, buf, int(entry)%300+1, int32(entry), agg)
	})
}

// aggregateReference is the rule Aggregate replaced, over a decoded file:
// per term the largest MaxW from zero up, and the smallest MinW only when
// the term has nEntries postings and none has a MinW at or below zero.
func aggregateReference(f *File, nEntries int) []EntryWeight {
	agg := make([]EntryWeight, 0, len(f.Terms()))
	for _, tm := range f.Terms() {
		ps := f.Postings(tm)
		a := EntryWeight{Term: tm, MinW: math.Inf(1)}
		covered := len(ps) == nEntries
		for _, p := range ps {
			if p.MaxW > a.MaxW {
				a.MaxW = p.MaxW
			}
			if p.MinW < a.MinW {
				a.MinW = p.MinW
			}
			if p.MinW <= 0 {
				covered = false
			}
		}
		if !covered {
			a.MinW = 0
		}
		agg = append(agg, a)
	}
	return agg
}

// checkAggregate requires Aggregate on buf to fail exactly when Decode
// does, and otherwise to equal the reference bit for bit.
func checkAggregate(t *testing.T, buf []byte, nEntries int) {
	t.Helper()
	got, err := Aggregate(buf, nEntries)
	f, derr := Decode(buf)
	if (err == nil) != (derr == nil) {
		t.Fatalf("Aggregate error %v, Decode error %v: want both or neither", err, derr)
	}
	if derr != nil {
		return
	}
	want := aggregateReference(f, nEntries)
	if len(got) != len(want) {
		t.Fatalf("Aggregate: %d terms, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Term != w.Term || math.Float64bits(g.MaxW) != math.Float64bits(w.MaxW) || math.Float64bits(g.MinW) != math.Float64bits(w.MinW) {
			t.Fatalf("Aggregate term %d: %+v, want %+v", i, g, w)
		}
	}
}

func TestAggregateMatchesReferenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 200; round++ {
		entries := 1 + rng.Intn(6)
		if round%4 == 0 {
			entries = 129 + rng.Intn(200)
		}
		f := New()
		for tm := 0; tm < 30; tm++ {
			for e := 0; e < entries; e++ {
				if rng.Intn(4) == 0 {
					continue // not covered
				}
				minW := rng.Float64()
				if rng.Intn(8) == 0 {
					minW = 0 // covered by postings, but not by a positive minimum
				}
				f.Add(vocab.TermID(tm), Posting{Entry: int32(e), MaxW: rng.Float64(), MinW: minW})
			}
		}
		for _, includeMin := range []bool{true, false} {
			checkAggregate(t, f.Encode(includeMin, entries), entries)
		}
	}
}

// FuzzAggregate: on every input Aggregate fails exactly when Decode does
// and otherwise equals the decoded-file reference; the other readers agree
// too (checkRecord).
func FuzzAggregate(f *testing.F) {
	for _, buf := range fuzzSeedBuffers() {
		f.Add(buf, uint16(3))
	}
	for _, r := range TreeRecords(f) {
		f.Add(r.Buf, uint16(r.Entries))
	}
	f.Fuzz(func(t *testing.T, buf []byte, entries uint16) {
		checkRecord(t, buf, int(entries)%300, int32(entries%7), nil)
	})
}
