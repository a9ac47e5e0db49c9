package invfile_test

import (
	"math"
	"runtime"
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

// TestReplaceEntryExactAllocation: on a 20,000-object default build, a
// ReplaceEntry of the root's entry 0 by its child's aggregate returns an
// exactly sized record and allocates little else. The pager keeps every
// record it is handed for the record's life, so slack here is slack for
// good. It takes the least of a few calls: one that finds ReplaceEntry's
// pool empty (the first, or one after the race detector dropped a pooled
// buffer, as it does on purpose) also allocates the working buffer.
func TestReplaceEntryExactAllocation(t *testing.T) {
	ds := dataset.GenerateFlickr(dataset.DefaultFlickrConfig(20000))
	tree := irtree.Build(ds, textrel.NewModel(textrel.LM, ds), irtree.Config{Kind: irtree.MIRTree})
	read := func(id int32) (*irtree.NodeData, []byte) {
		node, err := tree.ReadNode(id)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := tree.Backend().ReadRecord(node.InvID)
		if err != nil {
			t.Fatal(err)
		}
		return node, buf
	}
	root, rootBuf := read(tree.RootID())
	child, childBuf := read(root.Entries[0].Child)
	agg, err := invfile.Aggregate(childBuf, len(child.Entries))
	if err != nil {
		t.Fatal(err)
	}
	least := uint64(math.MaxUint64)
	var got []byte
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err = invfile.ReplaceEntry(rootBuf, 0, agg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if cap(got) != len(got) {
		t.Errorf("result of %d bytes has capacity %d", len(got), cap(got))
	}
	if least > uint64(len(got))+8<<10 {
		t.Errorf("replacing entry 0 of a %d-byte root by a %d-term aggregate allocated %d bytes for a %d-byte result",
			len(rootBuf), len(agg), least, len(got))
	}
}
