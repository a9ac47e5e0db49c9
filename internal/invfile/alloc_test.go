package invfile

import (
	"testing"

	"repro/internal/vocab"
)

// allocFixture builds an encoded file plus the term sets and floor
// function of a typical traversal node visit.
func allocFixture() (buf []byte, f *File, nEntries int, maxTerms, minTerms []vocab.TermID, floorOf func(vocab.TermID) float64) {
	f = New()
	nEntries = 16
	for t := vocab.TermID(0); t < 40; t++ {
		for e := int32(0); e < int32(nEntries); e += 1 + int32(t)%3 {
			f.Add(t, Posting{Entry: e, MaxW: 0.5 + float64(t)/100, MinW: 0.1})
		}
	}
	buf = f.Encode(true)
	maxTerms = []vocab.TermID{2, 7, 11, 23, 39}
	minTerms = []vocab.TermID{7, 23}
	floorOf = func(t vocab.TermID) float64 { return 0.01 }
	return
}

// TestDecodeSumsIntoAllocationFree pins the per-node cost of the fused
// traversal decode: with a warm caller-supplied scratch, DecodeSumsInto
// must not allocate at all. A regression here silently re-introduces the
// two slice allocations per node visit this PR removed.
func TestDecodeSumsIntoAllocationFree(t *testing.T) {
	buf, _, nEntries, maxTerms, minTerms, floorOf := allocFixture()
	scratch := &SumScratch{}
	if _, _, err := DecodeSumsInto(buf, nEntries, maxTerms, minTerms, floorOf, scratch); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := DecodeSumsInto(buf, nEntries, maxTerms, minTerms, floorOf, scratch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodeSumsInto allocates %.1f times per node visit, want 0", allocs)
	}
}

// TestSumsIntoAllocationFree pins the decoded-cache hit path: computing
// bound sums over the flat layout with warm scratch must not allocate.
func TestSumsIntoAllocationFree(t *testing.T) {
	_, f, nEntries, maxTerms, minTerms, floorOf := allocFixture()
	scratch := &SumScratch{}
	if _, _, err := f.SumsInto(nEntries, maxTerms, minTerms, floorOf, scratch); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := f.SumsInto(nEntries, maxTerms, minTerms, floorOf, scratch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("SumsInto allocates %.1f times per node visit, want 0", allocs)
	}
}

// TestScratchVariantsMatchAllocatingPaths: the two sum paths the traversal
// treats as interchangeable — the byte-wise scan of an encoded buffer and
// the binary-search walk of its decoded file — must agree bit for bit,
// whether their scratch is fresh (allocating) or reused.
func TestScratchVariantsMatchAllocatingPaths(t *testing.T) {
	buf, f, nEntries, maxTerms, minTerms, floorOf := allocFixture()
	wantMax, wantMin, err := DecodeSumsInto(buf, nEntries, maxTerms, minTerms, floorOf, &SumScratch{})
	if err != nil {
		t.Fatal(err)
	}
	warm := &SumScratch{Max: make([]float64, 64), Min: make([]float64, 64)}
	for _, scratch := range []*SumScratch{{}, warm} {
		gotMax, gotMin, err := f.SumsInto(nEntries, maxTerms, minTerms, floorOf, scratch)
		if err != nil {
			t.Fatal(err)
		}
		compareSums(t, "max", gotMax, wantMax)
		compareSums(t, "min", gotMin, wantMin)
	}
}
