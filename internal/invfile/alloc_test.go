package invfile

import (
	"testing"

	"repro/internal/vocab"
)

// The sum starts of allocFixture's node visit.
const allocMaxStart, allocMinStart = 0.05, 0.02

// allocFixture builds an encoded file and its Dir plus the term sets of a
// typical traversal node visit.
func allocFixture() (buf []byte, dir *Dir, nEntries int, maxTerms, minTerms []vocab.TermID) {
	f := New()
	nEntries = 16
	for t := vocab.TermID(0); t < 40; t++ {
		for e := int32(0); e < int32(nEntries); e += 1 + int32(t)%3 {
			f.Add(t, Posting{Entry: e, MaxW: 0.5 + float64(t)/100, MinW: 0.1})
		}
	}
	buf = f.Encode(true, nEntries)
	dir, err := OpenDir(buf)
	if err != nil {
		panic(err)
	}
	maxTerms = []vocab.TermID{2, 7, 11, 23, 39}
	minTerms = []vocab.TermID{7, 23}
	return
}

// TestDecodeSumsIntoAllocationFree pins the per-node cost of the fused
// traversal decode: with a warm caller-supplied scratch, DecodeSumsInto
// must not allocate at all. A regression here silently re-introduces the
// two slice allocations per node visit this PR removed.
func TestDecodeSumsIntoAllocationFree(t *testing.T) {
	buf, _, nEntries, maxTerms, minTerms := allocFixture()
	scratch := &SumScratch{}
	if _, _, err := DecodeSumsInto(buf, nEntries, maxTerms, minTerms, allocMaxStart, allocMinStart, scratch); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := DecodeSumsInto(buf, nEntries, maxTerms, minTerms, allocMaxStart, allocMinStart, scratch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodeSumsInto allocates %.1f times per node visit, want 0", allocs)
	}
}

// TestSumsIntoAllocationFree pins the decoded-cache hit path: computing
// bound sums through a Dir with warm scratch must not allocate, whether
// the Dir reads its record's bytes or, detached, reads its runs by range
// into the scratch.
func TestSumsIntoAllocationFree(t *testing.T) {
	buf, attached, nEntries, maxTerms, minTerms := allocFixture()
	detached, err := OpenDir(buf)
	if err != nil {
		t.Fatal(err)
	}
	detached.Detach(rangeReader(buf))
	for name, dir := range map[string]*Dir{"attached": attached, "detached": detached} {
		scratch := &SumScratch{}
		if _, _, err := dir.SumsInto(nEntries, maxTerms, minTerms, allocMaxStart, allocMinStart, scratch); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, _, err := dir.SumsInto(nEntries, maxTerms, minTerms, allocMaxStart, allocMinStart, scratch); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: SumsInto allocates %.1f times per node visit, want 0", name, allocs)
		}
	}
}

// TestScratchVariantsMatchAllocatingPaths: the two sum paths the traversal
// treats as interchangeable — the directory walk of an encoded buffer and
// the binary search of its Dir — must agree bit for bit, whether their
// scratch is fresh (allocating) or reused.
func TestScratchVariantsMatchAllocatingPaths(t *testing.T) {
	buf, dir, nEntries, maxTerms, minTerms := allocFixture()
	wantMax, wantMin, err := DecodeSumsInto(buf, nEntries, maxTerms, minTerms, allocMaxStart, allocMinStart, &SumScratch{})
	if err != nil {
		t.Fatal(err)
	}
	warm := &SumScratch{Max: make([]float64, 64), Min: make([]float64, 64)}
	for _, scratch := range []*SumScratch{{}, warm} {
		gotMax, gotMin, err := dir.SumsInto(nEntries, maxTerms, minTerms, allocMaxStart, allocMinStart, scratch)
		if err != nil {
			t.Fatal(err)
		}
		compareSums(t, "max", gotMax, wantMax)
		compareSums(t, "min", gotMin, wantMin)
	}
}

// TestReplaceEntryOneAllocation pins the write path's splice at its one
// allocation with its pool warm, the returned record: the header is
// written into a reserved prefix of the working buffer, not prepended by a
// second copy, and the buffer's bound holds.
func TestReplaceEntryOneAllocation(t *testing.T) {
	buf, _, _, _, _ := allocFixture()
	agg := []EntryWeight{{Term: 1, MaxW: 2, MinW: 1}, {Term: 7, MaxW: 3}, {Term: 40, MaxW: 1, MinW: 0.5}}
	for _, entry := range []int32{0, 5, 16} {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := ReplaceEntry(buf, entry, agg); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 {
			t.Fatalf("ReplaceEntry at entry %d allocates %.1f times, want 1", entry, allocs)
		}
	}
}

// TestAggregateOneAllocation: Aggregate allocates only the slice it
// returns.
func TestAggregateOneAllocation(t *testing.T) {
	buf, _, nEntries, _, _ := allocFixture()
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Aggregate(buf, nEntries); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("Aggregate allocates %.1f times, want 1", allocs)
	}
}
