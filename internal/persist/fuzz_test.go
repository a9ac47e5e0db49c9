package persist

import "testing"

// FuzzDecodeMaster: the master-record loader must reject arbitrary and
// bit-flipped inputs with an error — never a panic — and anything it
// accepts must satisfy the structural invariants the rest of Load builds
// on (validated freeze point, in-range deleted ids, objects referencing
// only vocabulary terms). Seeded with real master records, with and
// without deletions.
func FuzzDecodeMaster(f *testing.F) {
	ix := testIndex(f)
	f.Add(encodeMaster(ix))
	ix.Deleted = []int32{3, 17, 41}
	f.Add(encodeMaster(ix))
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
			if ts := o.Doc.Terms(); len(ts) > 0 && int(ts[len(ts)-1]) >= ix.DS.Vocab.Size() {
				t.Fatalf("accepted object %d referencing term %d outside vocabulary of %d",
					i, ts[len(ts)-1], ix.DS.Vocab.Size())
			}
		}
	})
}
