package irtree

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/textrel"
	"repro/internal/vocab"
)

func buildSmall(t testing.TB, kind Kind, measure textrel.MeasureKind) (*Tree, *dataset.Dataset, *textrel.Scorer) {
	t.Helper()
	ds := dataset.GenerateFlickr(dataset.FlickrConfig{
		NumObjects: 800, VocabSize: 300, MeanTags: 5, NumCluster: 8, Zipf: 1.2, Seed: 5,
	})
	scorer := textrel.NewScorer(ds, measure, 0.5)
	tree := Build(ds, scorer.Model, Config{Kind: kind, Fanout: 16})
	return tree, ds, scorer
}

func TestBuildBasics(t *testing.T) {
	tree, ds, _ := buildSmall(t, MIRTree, textrel.LM)
	if tree.Kind() != MIRTree || tree.Kind().String() != "MIR-tree" {
		t.Error("kind mismatch")
	}
	if IRTree.String() != "IR-tree" {
		t.Error("IR-tree name")
	}
	if tree.Dataset() != ds {
		t.Error("dataset accessor")
	}
	if tree.Height() < 2 {
		t.Errorf("height = %d, want ≥ 2 for 800 objects at fanout 16", tree.Height())
	}
	if tree.NumNodes() <= 1 {
		t.Error("tree should have multiple nodes")
	}
	if tree.DiskPages() == 0 {
		t.Error("tree should occupy pages")
	}
	if tree.Model() == nil {
		t.Error("model accessor")
	}
}

func TestReadNodeChargesIO(t *testing.T) {
	tree, _, _ := buildSmall(t, MIRTree, textrel.LM)
	tree.IO().Reset()
	node, err := tree.ReadNode(tree.RootID())
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.IO().NodeVisits(); got != 1 {
		t.Errorf("node visits = %d, want 1", got)
	}
	before := tree.IO().InvBlocks()
	if _, err := tree.ReadInvFile(node); err != nil {
		t.Fatal(err)
	}
	if tree.IO().InvBlocks() <= before {
		t.Error("inverted-file load must charge blocks")
	}
}

func TestReadNodeUnknown(t *testing.T) {
	tree, _, _ := buildSmall(t, MIRTree, textrel.LM)
	for _, id := range []int32{-1, 99999} {
		if _, err := tree.ReadNode(id); err == nil {
			t.Errorf("ReadNode(%d) should error", id)
		}
	}
}

func TestNodeRoundTripStructure(t *testing.T) {
	tree, ds, _ := buildSmall(t, MIRTree, textrel.LM)
	root, err := tree.ReadNode(tree.RootID())
	if err != nil {
		t.Fatal(err)
	}
	if root.Count != int32(len(ds.Objects)) {
		t.Errorf("root count = %d, want %d", root.Count, len(ds.Objects))
	}
	var sum int32
	for _, e := range root.Entries {
		sum += e.Count
	}
	if sum != root.Count {
		t.Errorf("entry counts sum %d != root count %d", sum, root.Count)
	}
	if root.MBR() != ds.Space {
		t.Errorf("root MBR %v != data space %v", root.MBR(), ds.Space)
	}
	// Walk to the leaves; every object reachable exactly once.
	seen := map[int32]int{}
	var walk func(id int32)
	walk = func(id int32) {
		n, err := tree.ReadNode(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range n.Entries {
			if n.Leaf {
				seen[e.Child]++
				if e.Count != 1 {
					t.Fatalf("leaf entry count = %d", e.Count)
				}
			} else {
				walk(e.Child)
			}
		}
	}
	walk(tree.RootID())
	if len(seen) != len(ds.Objects) {
		t.Fatalf("reached %d objects, want %d", len(seen), len(ds.Objects))
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("object %d reached %d times", id, n)
		}
	}
}

// The defining MIR-tree invariant (Section 5.1): for every node entry and
// term, the stored MaxW bounds every document weight in the subtree from
// above, and the stored MinW — when positive — from below.
func TestPostingWeightsBoundSubtreeDocs(t *testing.T) {
	for _, measure := range []textrel.MeasureKind{textrel.LM, textrel.TFIDF, textrel.KO} {
		tree, ds, _ := buildSmall(t, MIRTree, measure)
		model := tree.Model()

		// collect subtree docs per node entry
		var docsUnder func(id int32, leaf bool) []vocab.Doc
		docsUnder = func(ref int32, isObj bool) []vocab.Doc {
			if isObj {
				return []vocab.Doc{ds.Objects[ref].Doc}
			}
			n, err := tree.ReadNode(ref)
			if err != nil {
				t.Fatal(err)
			}
			var out []vocab.Doc
			for _, e := range n.Entries {
				out = append(out, docsUnder(e.Child, n.Leaf)...)
			}
			return out
		}

		var check func(id int32)
		check = func(id int32) {
			n, err := tree.ReadNode(id)
			if err != nil {
				t.Fatal(err)
			}
			inv, err := tree.ReadInvFile(n)
			if err != nil {
				t.Fatal(err)
			}
			for _, tm := range inv.Terms() {
				for _, p := range inv.Postings(tm) {
					docs := docsUnder(n.Entries[p.Entry].Child, n.Leaf)
					for _, d := range docs {
						w := model.Weight(d, tm)
						if w > p.MaxW+1e-12 {
							t.Fatalf("%s: doc weight %v exceeds posting max %v", measure, w, p.MaxW)
						}
						if p.MinW > 0 && w < p.MinW-1e-12 {
							t.Fatalf("%s: doc weight %v below posting min %v", measure, w, p.MinW)
						}
					}
				}
			}
			if !n.Leaf {
				for _, e := range n.Entries {
					check(e.Child)
				}
			}
		}
		check(tree.RootID())
	}
}

func TestIRTreeStoresNoMinWeights(t *testing.T) {
	tree, _, _ := buildSmall(t, IRTree, textrel.LM)
	root, err := tree.ReadNode(tree.RootID())
	if err != nil {
		t.Fatal(err)
	}
	inv, err := tree.ReadInvFile(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, tm := range inv.Terms() {
		for _, p := range inv.Postings(tm) {
			if p.MinW != 0 {
				t.Fatalf("IR-tree posting has MinW %v", p.MinW)
			}
		}
	}
}

func TestMIRTreeLargerThanIRTree(t *testing.T) {
	mir, _, _ := buildSmall(t, MIRTree, textrel.LM)
	ir, _, _ := buildSmall(t, IRTree, textrel.LM)
	if mir.DiskPages() < ir.DiskPages() {
		t.Errorf("MIR-tree (%d pages) should not be smaller than IR-tree (%d)",
			mir.DiskPages(), ir.DiskPages())
	}
}

func TestEmptyDataset(t *testing.T) {
	v := vocab.New()
	ds := dataset.Build(nil, v)
	scorer := textrel.NewScorer(ds, textrel.KO, 0.5)
	tree := Build(ds, scorer.Model, Config{Kind: MIRTree})
	if tree.RootID() >= 0 {
		t.Error("empty dataset should have no root")
	}
	results, _, err := tree.TopK(scorer, &dataset.User{}, 3)
	if err != nil || len(results) != 0 {
		t.Errorf("TopK on empty tree = %v, %v", results, err)
	}
}
