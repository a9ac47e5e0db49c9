package invfile_test

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/invfile"
	"repro/internal/irtree"
	"repro/internal/textrel"
)

func init() { invfile.TreeRecords = treeRecords }

// treeRecords is every posting record of a built 2,000-object tree, of
// either kind, at fanout 32 (one-byte entry deltas) and at fanout 300,
// whose leaves hold more than 256 entries and so take two-byte deltas.
func treeRecords(tb testing.TB) []invfile.TreeRecord {
	var out []invfile.TreeRecord
	for _, kind := range []irtree.Kind{irtree.IRTree, irtree.MIRTree} {
		for _, fanout := range []int{32, 300} {
			widest := 0
			forEachRecord(tb, kind, fanout, func(buf []byte, entries int) {
				out = append(out, invfile.TreeRecord{Buf: buf, Entries: entries})
				widest = max(widest, entries)
			})
			if fanout == 300 && widest <= 256 {
				tb.Fatalf("%v fanout 300: widest node has %d entries; the seeds need more than 256", kind, widest)
			}
		}
	}
	return out
}

// forEachRecord builds a 2,000-object tree of the given kind and fanout (0
// is the default) and calls fn with every node's posting record and entry
// count, root first.
func forEachRecord(tb testing.TB, kind irtree.Kind, fanout int, fn func(buf []byte, entries int)) {
	tb.Helper()
	ds := dataset.GenerateFlickr(dataset.FlickrConfig{
		NumObjects: 2000, VocabSize: 500, MeanTags: 5, NumCluster: 8, Zipf: 1.1, Seed: 3,
	})
	model := textrel.NewScorer(ds, textrel.LM, 0.5).Model
	tree := irtree.Build(ds, model, irtree.Config{Kind: kind, Fanout: fanout})
	var walk func(id int32)
	walk = func(id int32) {
		node, err := tree.ReadNode(id)
		if err != nil {
			tb.Fatal(err)
		}
		buf, err := tree.Backend().ReadRecord(node.InvID)
		if err != nil {
			tb.Fatal(err)
		}
		fn(buf, len(node.Entries))
		if !node.Leaf {
			for _, e := range node.Entries {
				walk(e.Child)
			}
		}
	}
	walk(tree.RootID())
}
