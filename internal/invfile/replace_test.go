package invfile

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/vocab"
)

// replaceEntryReference is the body ReplaceEntry replaced: re-Add every
// posting of the file except the entry's, Add the aggregate, and leave
// the ordering to freeze.
func replaceEntryReference(f *File, entry int32, agg []EntryWeight) *File {
	rebuilt := New()
	f.ForEach(func(tm vocab.TermID, ps []Posting) {
		for _, p := range ps {
			if p.Entry != entry {
				rebuilt.Add(tm, p)
			}
		}
	})
	for _, a := range agg {
		rebuilt.Add(a.Term, Posting{Entry: entry, MaxW: a.MaxW, MinW: a.MinW})
	}
	return rebuilt
}

// checkReplaceEntry requires ReplaceEntry to encode to the reference's
// bytes in both record versions and to leave its receiver as it was.
func checkReplaceEntry(t *testing.T, f *File, entry int32, agg []EntryWeight) {
	t.Helper()
	before := f.Encode(true)
	got := f.ReplaceEntry(entry, agg)
	want := replaceEntryReference(f, entry, agg)
	for _, includeMin := range []bool{true, false} {
		if !bytes.Equal(got.Encode(includeMin), want.Encode(includeMin)) {
			t.Fatalf("ReplaceEntry(%d, %v) (min %v): bytes differ from the rebuild-through-Add reference", entry, agg, includeMin)
		}
	}
	if got.NumTerms() != want.NumTerms() || got.NumPostings() != want.NumPostings() || got.MemBytes() != want.MemBytes() {
		t.Fatalf("ReplaceEntry(%d, %v): %d terms %d postings %d bytes, want %d %d %d", entry, agg,
			got.NumTerms(), got.NumPostings(), got.MemBytes(), want.NumTerms(), want.NumPostings(), want.MemBytes())
	}
	if !bytes.Equal(f.Encode(true), before) {
		t.Fatalf("ReplaceEntry(%d, %v) modified its receiver", entry, agg)
	}
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
		decoded, err := Decode(f.Encode(true))
		if err != nil {
			t.Fatal(err)
		}
		return decoded
	}
	w := func(tm vocab.TermID) EntryWeight { return EntryWeight{Term: tm, MaxW: 9, MinW: 0.125} }
	cases := []struct {
		name  string
		f     *File
		entry int32
		agg   []EntryWeight
		terms int // NumTerms of the result
	}{
		{"same terms", file(), 1, []EntryWeight{w(10), w(20)}, 3},
		{"entry absent from the file", file(), 7, []EntryWeight{w(10), w(30)}, 3},
		{"entry between two others", file(), 2, []EntryWeight{w(10)}, 3},
		{"lost term has no postings left", file(), 1, []EntryWeight{w(10)}, 2},
		{"new terms before, between and after", file(), 1, []EntryWeight{w(5), w(15), w(20), w(25), w(35)}, 7},
		{"empty aggregate", file(), 1, nil, 2},
		{"empty aggregate, entry absent", file(), 9, nil, 3},
		{"empty file", New(), 0, []EntryWeight{w(1), w(2)}, 2},
		{"empty file, empty aggregate", New(), 0, nil, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkReplaceEntry(t, c.f, c.entry, c.agg)
			if got := c.f.ReplaceEntry(c.entry, c.agg).NumTerms(); got != c.terms {
				t.Fatalf("NumTerms = %d, want %d", got, c.terms)
			}
		})
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
		f := New()
		for tm := 4; tm < universe-4; tm++ {
			if rng.Intn(2) == 0 {
				continue
			}
			for e := 0; e < entries; e++ {
				if rng.Intn(3) != 0 {
					f.Add(vocab.TermID(tm), Posting{Entry: int32(e), MaxW: rng.Float64(), MinW: rng.Float64() / 2})
				}
			}
		}
		if round%2 == 0 { // a decoded file and a built one take the same path
			var err error
			if f, err = Decode(f.Encode(true)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 4; i++ {
			entry := int32(rng.Intn(entries + 2)) // past the last one: absent
			checkReplaceEntry(t, f, entry, randomAggregate(rng, universe))
		}
		checkReplaceEntry(t, f, int32(rng.Intn(entries)), nil)
	}
}

// FuzzReplaceEntry: on every buffer that decodes, for any entry and any
// strictly ascending aggregate, ReplaceEntry equals the
// rebuild-through-Add reference, duplicate (term, entry) postings of a
// foreign file included.
func FuzzReplaceEntry(f *testing.F) {
	for i, sf := range fuzzSeedFiles() {
		f.Add(sf.Encode(true), uint16(i), []byte{1, 40, 8, 3, 16, 0, 200, 7, 7})
		f.Add(sf.Encode(false), uint16(5), []byte{})
	}
	f.Fuzz(func(t *testing.T, buf []byte, entry uint16, seed []byte) {
		file, err := Decode(buf)
		if err != nil {
			return
		}
		var agg []EntryWeight
		tm := vocab.TermID(-1)
		for ; len(seed) >= 3; seed = seed[3:] {
			tm += 1 + vocab.TermID(seed[0])
			agg = append(agg, EntryWeight{Term: tm, MaxW: float64(seed[1]) / 16, MinW: float64(seed[2]) / 32})
		}
		checkReplaceEntry(t, file, int32(entry), agg)
	})
}

// TestFreezeMergesPendingLikeFullSort: a few Adds on a large decoded file
// must leave exactly the layout the old freeze produced by stable-sorting
// every posting of the file, flat ones first: new terms before, between
// and after, postings before, between and after a term's own, and
// duplicates of a (term, entry) pair in flat-then-Add order.
func TestFreezeMergesPendingLikeFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	big := New()
	for tm := vocab.TermID(10); tm < 400; tm += 2 {
		for e := int32(1); e < 60; e += 1 + int32(rng.Intn(3)) {
			big.Add(tm, Posting{Entry: e, MaxW: rng.Float64(), MinW: rng.Float64()})
		}
	}
	f, err := Decode(big.Encode(true))
	if err != nil {
		t.Fatal(err)
	}
	type tp struct {
		term vocab.TermID
		p    Posting
	}
	var all []tp
	f.ForEach(func(tm vocab.TermID, ps []Posting) {
		for _, p := range ps {
			all = append(all, tp{tm, p})
		}
	})
	flat := len(all)
	existing := all[flat/2]
	adds := []tp{
		{401, Posting{Entry: 3, MaxW: 1}},                                 // a term after the last
		{2, Posting{Entry: 9, MaxW: 2}},                                   // a term before the first
		{2, Posting{Entry: 4, MaxW: 3}},                                   // out of entry order within it
		{11, Posting{Entry: 5, MaxW: 4}},                                  // a term between two
		{existing.term, Posting{Entry: 0, MaxW: 5}},                       // before a term's first posting
		{existing.term, Posting{Entry: 1000, MaxW: 6}},                    // after its last
		{existing.term, Posting{Entry: existing.p.Entry, MaxW: 7}},        // duplicate of a flat posting
		{existing.term, Posting{Entry: existing.p.Entry, MaxW: 8}},        // and again: Add order decides
		{401, Posting{Entry: 3, MaxW: 9}},                                 // duplicate of a pending posting
		{all[0].term, Posting{Entry: all[0].p.Entry, MaxW: 10}},           // duplicate of the very first
		{all[flat-1].term, Posting{Entry: all[flat-1].p.Entry, MaxW: 11}}, // and of the very last
	}
	for _, a := range adds {
		f.Add(a.term, a.p)
		all = append(all, a)
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].term != all[j].term {
			return all[i].term < all[j].term
		}
		return all[i].p.Entry < all[j].p.Entry
	})

	if f.NumPostings() != len(all) {
		t.Fatalf("NumPostings = %d, want %d", f.NumPostings(), len(all))
	}
	i := 0
	prev := vocab.TermID(-1)
	f.ForEach(func(tm vocab.TermID, ps []Posting) {
		if tm <= prev || len(ps) == 0 {
			t.Fatalf("term %d after %d with %d postings", tm, prev, len(ps))
		}
		prev = tm
		for _, p := range ps {
			if all[i].term != tm || all[i].p != p {
				t.Fatalf("posting %d = (%d, %+v), want (%d, %+v)", i, tm, p, all[i].term, all[i].p)
			}
			i++
		}
	})
	// The merged file is canonical: it survives a round trip unchanged.
	back, err := Decode(f.Encode(true))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Encode(true), f.Encode(true)) {
		t.Fatal("merged file is not a decode↔encode fixpoint")
	}
}
