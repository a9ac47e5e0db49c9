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
		tree, _, _ := buildSmall(t, MIRTree, measure)
		checkSubtreeBounds(t, tree, nil)
	}
}

// checkSubtreeBounds walks every node of tree once and holds each entry's
// postings and text sums to every document beneath it, exactly: MaxW at
// or above, and a positive MinW at or below, each document's weight of
// the posting's term; MaxTextSums at or above, and MinTextSums at or
// below, each document's Model.Sum of terms.
func checkSubtreeBounds(t *testing.T, tree *Tree, terms []vocab.TermID) {
	t.Helper()
	model, ds := tree.Model(), tree.Dataset()
	var walk func(id int32) []vocab.Doc // the documents beneath node id
	walk = func(id int32) []vocab.Doc {
		n, err := tree.ReadNode(id)
		if err != nil {
			t.Fatal(err)
		}
		inv, err := tree.ReadInvFile(n)
		if err != nil {
			t.Fatal(err)
		}
		under, all := make([][]vocab.Doc, len(n.Entries)), []vocab.Doc(nil)
		for i, e := range n.Entries {
			if n.Leaf {
				under[i] = []vocab.Doc{ds.Objects[e.Child].Doc}
			} else {
				under[i] = walk(e.Child)
			}
			all = append(all, under[i]...)
		}
		for _, tm := range inv.Terms() {
			for _, p := range inv.Postings(tm) {
				for _, d := range under[p.Entry] {
					if w := model.Weight(d, tm); w > p.MaxW || p.MinW > 0 && w < p.MinW {
						t.Fatalf("node %d entry %d: weight %v of term %d outside [MinW %v, MaxW %v]", id, p.Entry, w, tm, p.MinW, p.MaxW)
					}
				}
			}
		}
		maxSums, minSums := MaxTextSums(model, inv, len(n.Entries), terms), MinTextSums(model, inv, len(n.Entries), terms)
		for i, docs := range under {
			for _, d := range docs {
				if s := model.Sum(d, terms); s < minSums[i] || s > maxSums[i] {
					t.Fatalf("node %d entry %d: doc sum %v outside [MinTextSums %v, MaxTextSums %v]", id, i, s, minSums[i], maxSums[i])
				}
			}
		}
		return all
	}
	walk(tree.RootID())
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
