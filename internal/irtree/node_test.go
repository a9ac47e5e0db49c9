package irtree

import (
	"bytes"
	"testing"

	"repro/internal/storage"
	"repro/internal/textrel"
)

// FuzzDecodeNode: node pages are not checksummed, so no record may panic
// the node decoder or make it allocate past what the record could hold,
// and a record it accepts must re-encode to itself byte for byte. The
// seeds are every node record of a built tree; the committed corpus holds
// a six-byte record that claimed 2³⁵ entries.
func FuzzDecodeNode(f *testing.F) {
	tree, _, _ := buildSmall(f, MIRTree, textrel.LM)
	for id := int32(0); id < int32(tree.NumNodes()); id++ {
		page := tree.nodes.page(id)
		if page == storage.InvalidPage {
			continue
		}
		rec, err := tree.sh.pager.ReadRecord(page)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(rec)
	}
	f.Fuzz(func(t *testing.T, rec []byte) {
		n, err := decodeNode(7, rec)
		if err != nil {
			return
		}
		if got := encodeNode(n.Leaf, n.Entries, n.InvID); !bytes.Equal(got, rec) {
			t.Fatalf("decoded node re-encodes to % x, want % x", got, rec)
		}
	})
}
