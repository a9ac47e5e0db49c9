package invfile_test

import (
	"math/rand"
	"testing"

	"repro/internal/invfile"
	"repro/internal/irtree"
	"repro/internal/storage"
	"repro/internal/vocab"
)

// varintLayoutLen is the length the layout before the fixed-stride one
// (record versions 1 and 2) gave f: its version, term count and, per term,
// the term id, the posting count and each posting's uvarint entry delta
// beside its weights.
func varintLayoutLen(f *invfile.File, includeMin bool) int {
	weights := 8
	if includeMin {
		weights = 16
	}
	n := 1 + storage.UvarintLen(uint64(len(f.Terms())))
	for _, t := range f.Terms() {
		ps := f.Postings(t)
		n += storage.UvarintLen(uint64(t)) + storage.UvarintLen(uint64(len(ps)))
		prev := int32(0)
		for _, p := range ps {
			n += storage.UvarintLen(uint64(p.Entry-prev)) + weights
			prev = p.Entry
		}
	}
	return n
}

// TestEncodeKeepsVarintLengths: up to a fanout of 128 every record is
// exactly as long as in the varint layout, so page counts and simulated
// I/O do not move; from 129 to 256, where that layout's deltas could take
// two bytes, it is never longer.
func TestEncodeKeepsVarintLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 300; round++ {
		fanout := 4 + rng.Intn(125)
		if round%3 == 0 {
			fanout = 129 + rng.Intn(128)
		}
		f := invfile.New()
		seen := map[[2]int]bool{} // a node stores one posting per (term, entry)
		for tm := 0; tm < 1+rng.Intn(300); tm++ {
			for e := 0; e < fanout; e++ {
				if rng.Intn(4) == 0 {
					id := tm * (1 + rng.Intn(90))
					if !seen[[2]int{id, e}] {
						seen[[2]int{id, e}] = true
						f.Add(vocab.TermID(id), invfile.Posting{Entry: int32(e), MaxW: rng.Float64(), MinW: rng.Float64()})
					}
				}
			}
		}
		for _, includeMin := range []bool{false, true} {
			got, old := len(f.Encode(includeMin, fanout)), varintLayoutLen(f, includeMin)
			if fanout <= 128 && got != old || got > old {
				t.Fatalf("fanout %d min %v: %d bytes, the varint layout's %d", fanout, includeMin, got, old)
			}
		}
	}
}

// TestBuiltTreeKeepsVarintLengths: every posting record of a built
// 2,000-object tree, of either kind at the default fanout and at 128, is
// exactly as long as the varint layout made it.
func TestBuiltTreeKeepsVarintLengths(t *testing.T) {
	for _, kind := range []irtree.Kind{irtree.IRTree, irtree.MIRTree} {
		for _, fanout := range []int{0, 128} {
			records := 0
			forEachRecord(t, kind, fanout, func(buf []byte, _ int) {
				f, err := invfile.Decode(buf)
				if err != nil {
					t.Fatal(err)
				}
				if old := varintLayoutLen(f, kind == irtree.MIRTree); len(buf) != old {
					t.Fatalf("%v fanout %d: %d-byte record, the varint layout's %d", kind, fanout, len(buf), old)
				}
				records++
			})
			if records < 10 {
				t.Fatalf("%v fanout %d: %d records checked", kind, fanout, records)
			}
		}
	}
}
