package irtree

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/storage"
	"repro/internal/textrel"
	"repro/internal/vocab"
)

// countingBackend counts the records written through it. It hides the
// pager's Reclaim, so no page address is ever reused and a node's record
// address changes exactly when the node is rewritten.
type countingBackend struct {
	storage.Backend
	writes int
}

func (c *countingBackend) WriteRecord(data []byte) storage.PageID {
	c.writes++
	return c.Backend.WriteRecord(data)
}

func (c *countingBackend) Reclaim([]storage.PageID) {}

// TestMutationWritesEachNodeOnce: a mutation writes two records (node and
// inverted file) for every node id the successor snapshot holds at a new
// address, and nothing else: no intermediate record for a node touched
// twice (the ancestors an update's delete and insert halves share), none
// for a node born and dropped inside the mutation. A mutation that fails
// half-way has written and retired nothing.
func TestMutationWritesEachNodeOnce(t *testing.T) {
	built, rest, _, _ := insertFixture(t, 400, 101)
	cb := &countingBackend{Backend: built.Backend()}
	tree, err := Restore(built.Dataset(), built.Model(), cb, built.EncodeMeta(), 0)
	if err != nil {
		t.Fatal(err)
	}
	step := func(what string, mutate func(*Tree) (*Tree, error)) {
		t.Helper()
		before := cb.writes
		next, err := mutate(tree)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		rewritten := 0
		for id := int32(0); int(id) < next.NumNodes(); id++ {
			if p := next.nodes.page(id); p != storage.InvalidPage && p != tree.nodes.page(id) {
				rewritten++
			}
		}
		if got := cb.writes - before; got != 2*rewritten {
			t.Fatalf("%s wrote %d records for %d rewritten nodes, want %d", what, got, rewritten, 2*rewritten)
		}
		tree = next
	}
	nextID := func() int32 { return int32(len(tree.Dataset().Objects)) }

	for _, o := range rest { // fanout 8: plenty of splits, the root's included
		step("insert", func(tr *Tree) (*Tree, error) { return tr.WithInsert(o) })
	}
	for i, o := range rest[:60] { // near and far replacements
		o.ID = nextID()
		step("replace", func(tr *Tree) (*Tree, error) { return tr.WithReplace(int32(i*3), o) })
	}

	// A replace whose insert half fails after its delete half has rewritten
	// a leaf and its ancestors.
	bad := rest[0]
	bad.ID = nextID() + 5
	writes, pages := cb.writes, tree.DiskPages()
	retiredRecords, retiredPages := tree.RetiredStats()
	if _, err := tree.WithReplace(1, bad); err == nil {
		t.Fatal("replace with a non-dense id should fail")
	}
	if r, p := tree.RetiredStats(); cb.writes != writes || tree.DiskPages() != pages || r != retiredRecords || p != retiredPages {
		t.Fatalf("failed replace left writes %d→%d, pages %d→%d, retired %d/%d→%d/%d",
			writes, cb.writes, pages, tree.DiskPages(), retiredRecords, retiredPages, r, p)
	}

	live := liveObjects(t, tree)
	for _, id := range live[:len(live)*4/5] { // enough to empty leaves and shrink the root
		step("delete", func(tr *Tree) (*Tree, error) { return tr.WithDelete(id) })
	}
	checkStoredAggregates(t, tree)
}

// liveObjects lists the object ids reachable from the root, in tree order.
func liveObjects(t *testing.T, tree *Tree) []int32 {
	t.Helper()
	var out []int32
	var walk func(id int32)
	walk = func(id int32) {
		n, err := tree.ReadNode(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range n.Entries {
			if n.Leaf {
				out = append(out, e.Child)
			} else {
				walk(e.Child)
			}
		}
	}
	walk(tree.RootID())
	return out
}

// checkStoredAggregates recomputes, for every entry of every node, the
// postings its inverted file must hold — the object's own weights in a
// leaf, the child file's per-term aggregate above — and requires the
// stored file to hold exactly those, in order. An IR-tree record stores no
// minimum weights: its MinW reads 0.
func checkStoredAggregates(t *testing.T, tree *Tree) {
	t.Helper()
	type key struct {
		term  vocab.TermID
		entry int32
	}
	var walk func(id int32) map[vocab.TermID]posting
	walk = func(id int32) map[vocab.TermID]posting {
		n, err := tree.ReadNode(id)
		if err != nil {
			t.Fatal(err)
		}
		inv, err := tree.ReadInvFile(n)
		if err != nil {
			t.Fatal(err)
		}
		want := map[key]posting{}
		for i, e := range n.Entries {
			if n.Leaf {
				doc := tree.Dataset().Objects[e.Child].Doc
				doc.ForEach(func(tm vocab.TermID, _ int32) {
					w := tree.Model().Weight(doc, tm)
					p := posting{Entry: int32(i), MaxW: w, MinW: w}
					if tree.Kind() == IRTree {
						p.MinW = 0
					}
					want[key{tm, int32(i)}] = p
				})
				continue
			}
			for tm, p := range walk(e.Child) {
				p.Entry = int32(i)
				want[key{tm, int32(i)}] = p
			}
		}
		// This node's own aggregate, for its parent: max of maxima, and a
		// minimum only where every entry has a positive one.
		agg := map[vocab.TermID]posting{}
		stored := 0
		for _, tm := range inv.Terms() {
			ps := inv.Postings(tm)
			a := posting{MinW: math.Inf(1)}
			for j, p := range ps {
				if j > 0 && ps[j-1].Entry >= p.Entry {
					t.Fatalf("node %d term %d: entries out of order", id, tm)
				}
				if w, ok := want[key{tm, p.Entry}]; !ok || w != p {
					t.Fatalf("node %d term %d entry %d: stored %+v, want %+v (present %v)", id, tm, p.Entry, p, w, ok)
				}
				stored++
				a.MaxW = math.Max(a.MaxW, p.MaxW)
				a.MinW = math.Min(a.MinW, p.MinW)
			}
			if len(ps) != len(n.Entries) || a.MinW <= 0 {
				a.MinW = 0
			}
			agg[tm] = a
		}
		if stored != len(want) {
			t.Fatalf("node %d stores %d postings, want %d", id, stored, len(want))
		}
		return agg
	}
	walk(tree.RootID())
}

// TestBuildStoresMutationAggregates: Build stores exactly the records a
// mutation would, for both kinds under every measure. Every object carries
// one common term; its TF-IDF weight is 0, so it is in every subtree yet
// has no positive minimum, and its MinW must read 0 all the way up.
func TestBuildStoresMutationAggregates(t *testing.T) {
	gen := dataset.GenerateFlickr(dataset.FlickrConfig{
		NumObjects: 600, VocabSize: 200, MeanTags: 5, NumCluster: 6, Zipf: 1.2, Seed: 11,
	})
	common := gen.Vocab.Add("everywhere")
	objects := make([]dataset.Object, len(gen.Objects))
	for i, o := range gen.Objects {
		o.Doc = o.Doc.MergeTerms([]vocab.TermID{common})
		objects[i] = o
	}
	ds := dataset.Build(objects, gen.Vocab)
	for _, measure := range []textrel.MeasureKind{textrel.LM, textrel.TFIDF, textrel.KO, textrel.BM25} {
		model := textrel.NewModel(measure, ds)
		if w := model.Weight(objects[0].Doc, common); measure == textrel.TFIDF && w != 0 {
			t.Fatalf("TF-IDF weight of the common term = %v, want 0", w)
		}
		for _, kind := range []Kind{IRTree, MIRTree} {
			t.Run(kind.String()+"/"+measure.String(), func(t *testing.T) {
				checkStoredAggregates(t, Build(ds, model, Config{Kind: kind, Fanout: 8}))
			})
		}
	}
}

// The same consistency must hold after inserts and replaces alone, with
// every node still well filled.
func TestMutationsKeepStoredAggregates(t *testing.T) {
	tree, rest, _, _ := insertFixture(t, 300, 103)
	for i, o := range rest {
		var err error
		o.ID = int32(len(tree.Dataset().Objects))
		if i%3 == 2 {
			tree, err = tree.WithReplace(int32(i), o)
		} else {
			tree, err = tree.WithInsert(o)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	checkStoredAggregates(t, tree)
}
