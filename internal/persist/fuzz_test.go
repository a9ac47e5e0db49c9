package persist

import (
	"math"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/textrel"
)

// FuzzDecodeMaster: the master-record loader must reject arbitrary and
// bit-flipped inputs with an error — never a panic — and anything it
// accepts must satisfy the structural invariants the rest of Load builds
// on (in-range deleted ids, objects referencing only vocabulary terms, a
// corpus context the model builds from). Seeded with real master records,
// with and without deletions, and with a compacted index's: fewer objects
// than its corpus's document count, and a vocabulary grown past the
// build-time terms.
func FuzzDecodeMaster(f *testing.F) {
	ix := testIndex(f)
	f.Add(encodeMaster(ix))
	ix.Deleted = []int32{3, 17, 41}
	f.Add(encodeMaster(ix))
	f.Add(encodeMaster(compactedIndex(f, ix)))
	f.Fuzz(func(t *testing.T, buf []byte) {
		ix, err := decodeMaster(buf)
		if err != nil {
			return
		}
		if ix.DS == nil || ix.DS.Vocab == nil {
			t.Fatal("decodeMaster accepted a record without a dataset")
		}
		n := len(ix.DS.Objects)
		for _, id := range ix.Deleted {
			if id < 0 || int(id) >= n {
				t.Fatalf("accepted deleted id %d outside %d objects", id, n)
			}
		}
		for i, o := range ix.DS.Objects {
			if !o.Loc.Valid() {
				t.Fatalf("accepted object %d at %v, outside the coordinate range", i, o.Loc)
			}
			if ts := o.Doc.Terms(); len(ts) > 0 && int(ts[len(ts)-1]) >= ix.DS.Vocab.Size() {
				t.Fatalf("accepted object %d referencing term %d outside vocabulary of %d",
					i, ts[len(ts)-1], ix.DS.Vocab.Size())
			}
			ts, fs := o.Doc.Terms(), o.Doc.Freqs()
			for j := range ts {
				if j > 0 && ts[j] <= ts[j-1] || fs[j] <= 0 {
					t.Fatalf("accepted object %d with term %d at frequency %d after terms %v", i, ts[j], fs[j], ts[:j])
				}
			}
		}
		st := ix.DS.Stats
		if terms := len(st.CollectionFreq); len(st.DocFreq) != terms || len(ix.maxW) != terms || terms > ix.DS.Vocab.Size() {
			t.Fatalf("accepted a corpus context of %d, %d and %d terms for a vocabulary of %d",
				terms, len(st.DocFreq), len(ix.maxW), ix.DS.Vocab.Size())
		}
		for term, w := range ix.maxW {
			if !(w >= 0) || math.IsInf(w, 0) {
				t.Fatalf("accepted maximum weight %v of term %d", w, term)
			}
		}
		if sp := ix.DS.Space; !(sp.Min.X <= sp.Max.X && sp.Min.Y <= sp.Max.Y) {
			t.Fatalf("accepted an unordered object space %v", sp)
		}
		if _, err := textrel.NewModelFrozen(ix.Measure, st, ix.Lambda, ix.maxW); err != nil {
			t.Fatalf("accepted a corpus context the model rejects: %v", err)
		}
	})
}

// compactedIndex returns what compacting ix after deleting its ids and
// adding a term looks like: its live objects, renumbered, under the
// build-time corpus context.
func compactedIndex(f *testing.F, ix *Index) *Index {
	f.Helper()
	v := ix.DS.Vocab
	live := make([]dataset.Object, 0, len(ix.DS.Objects))
	for _, o := range ix.DS.Objects {
		if slices.Contains(ix.Deleted, o.ID) {
			continue
		}
		o.ID = int32(len(live))
		live = append(live, o)
	}
	ds := &dataset.Dataset{Objects: live, Vocab: v, Stats: ix.DS.Stats, Space: ix.DS.Space}
	v.Add("after-build")
	c := *ix
	c.DS, c.Deleted = ds, nil // the tree's metadata is ix's: decodeMaster reads it as bytes
	if len(ds.Objects) >= int(ds.Stats.NumDocs) || v.Size() <= len(ds.Stats.CollectionFreq) {
		f.Fatal("the compacted seed holds its whole corpus")
	}
	return &c
}
