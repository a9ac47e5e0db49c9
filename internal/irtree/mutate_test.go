package irtree

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/storage"
	"repro/internal/testgen"
	"repro/internal/textrel"
	"repro/internal/vocab"
)

// countingBackend counts the records written through it and keeps them.
// It hides the pager's Reclaim, so no page address is ever reused and a
// node's record address changes exactly when the node is rewritten.
type countingBackend struct {
	storage.Backend
	writes  int
	records [][]byte
}

func (c *countingBackend) WriteRecord(data []byte) storage.PageID {
	c.writes++
	c.records = append(c.records, data)
	return c.Backend.WriteRecord(data)
}

func (c *countingBackend) Reclaim([]storage.PageID) {}

// rewrittenNodes counts the node ids next holds at an address base does
// not: the nodes a mutation from base to next rewrote.
func rewrittenNodes(base, next *Tree) int {
	n := 0
	for id := int32(0); int(id) < next.NumNodes(); id++ {
		if p := next.nodes.page(id); p != storage.InvalidPage && p != base.nodes.page(id) {
			n++
		}
	}
	return n
}

// TestMutationWritesEachNodeOnce: a mutation writes two records (node and
// inverted file) for every node id the successor snapshot holds at a new
// address, and nothing else: no intermediate record for a node touched
// twice (the ancestors an update's delete and insert halves share), none
// for a node born and dropped inside the mutation. A mutation that fails
// half-way — on a bad argument, or on a read that fails at any point of
// the tree operations or of the settle in freeze — has published, written
// and retired nothing, and once the fault clears the same mutation writes
// the records a twin that never saw the fault writes.
func TestMutationWritesEachNodeOnce(t *testing.T) {
	// restore builds the fixture over a store that counts its writes and
	// reads and can fail them: every call builds the same records at the
	// same addresses.
	restore := func() (*Tree, []dataset.Object, *countingBackend, *faultyBackend) {
		built, rest, _, _ := insertFixture(t, 400, 101)
		fb := &faultyBackend{Backend: built.Backend()}
		cb := &countingBackend{Backend: fb}
		tree, err := Restore(built.Dataset(), built.Model(), cb, built.EncodeMeta(), 0)
		if err != nil {
			t.Fatal(err)
		}
		return tree, rest, cb, fb
	}
	tree, rest, cb, fb := restore()
	var history []func(*Tree) (*Tree, error)
	step := func(what string, mutate func(*Tree) (*Tree, error)) {
		t.Helper()
		before := cb.writes
		next, err := mutate(tree)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got, rewritten := cb.writes-before, rewrittenNodes(tree, next); got != 2*rewritten {
			t.Fatalf("%s wrote %d records for %d rewritten nodes, want %d", what, got, rewritten, 2*rewritten)
		}
		tree = next
		history = append(history, mutate)
	}
	nextID := func() int32 { return int32(len(tree.Dataset().Objects)) }

	for _, o := range rest { // fanout 8: plenty of splits, the root's included
		step("insert", func(tr *Tree) (*Tree, error) { return tr.With(-1, &o) })
	}
	for i, o := range rest[:60] { // near and far replacements
		o.ID = nextID()
		step("replace", func(tr *Tree) (*Tree, error) { return tr.With(int32(i*3), &o) })
	}

	// unchanged fails unless a failed mutation left the store, the
	// retirement ledger and the published epoch as they were.
	writes, pages, epoch, pending := cb.writes, tree.DiskPages(), tree.Epoch(), len(tree.sh.pending)
	retiredRecords, retiredPages := tree.RetiredStats()
	unchanged := func(what string) {
		t.Helper()
		if r, p := tree.RetiredStats(); cb.writes != writes || tree.DiskPages() != pages || r != retiredRecords || p != retiredPages ||
			tree.Epoch() != epoch || len(tree.sh.pending) != pending {
			t.Fatalf("%s left writes %d→%d, pages %d→%d, retired %d/%d→%d/%d, epoch %d→%d, pending %d→%d", what,
				writes, cb.writes, pages, tree.DiskPages(), retiredRecords, retiredPages, r, p, epoch, tree.Epoch(), pending, len(tree.sh.pending))
		}
	}

	// A replace whose insert half fails after its delete half has rewritten
	// a leaf and its ancestors.
	bad := rest[0]
	bad.ID = nextID() + 5
	if _, err := tree.With(1, &bad); err == nil {
		t.Fatal("replace with a non-dense id should fail")
	}
	unchanged("a failed replace")

	// A replace whose reads fail at each read it makes in turn. A twin
	// with the same history makes it without a fault, counting its reads.
	twin, _, twinCB, twinFB := restore()
	for _, mutate := range history {
		var err error
		if twin, err = mutate(twin); err != nil {
			t.Fatal(err)
		}
	}
	o := rest[1]
	o.ID = nextID()
	replace := func(tr *Tree) (*Tree, error) { return tr.With(4, &o) }
	reads, twinWrites := twinFB.reads.Load(), len(twinCB.records)
	if _, err := replace(twin); err != nil {
		t.Fatal(err)
	}
	reads = twinFB.reads.Load() - reads
	for n := int64(1); n <= reads; n++ {
		fb.failAt.Store(n)
		if next, err := replace(tree); !errors.Is(err, errInjected) || next != nil {
			t.Fatalf("replace failing at read %d of %d: %v, want an error wrapping %v", n, reads, err, errInjected)
		}
		fb.failAt.Store(0)
		fb.fail.Store(false)
		unchanged(fmt.Sprintf("a replace failing at read %d of %d", n, reads))
	}
	step("replace after the faults", replace)
	if !reflect.DeepEqual(cb.records[writes:], twinCB.records[twinWrites:]) {
		t.Fatal("the replace after the faults wrote other records than its twin's")
	}

	live := liveObjects(t, tree)
	for _, id := range live[:len(live)*4/5] { // enough to empty leaves and shrink the root
		step("delete", func(tr *Tree) (*Tree, error) { return tr.With(id, nil) })
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

// FuzzMutations draws testgen instances, builds both kinds of tree over
// each at the drawn fanout, and applies the drawn write history through
// With. After each write every stored posting must be what the entries
// need (checkStoredAggregates), and the write must have written two
// records per rewritten node. Plain go test runs the seed corpus.
func FuzzMutations(f *testing.F) {
	for seed := range int64(48) { // each fanout eight times
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		d := testgen.Draw(seed)
		for _, kind := range []Kind{IRTree, MIRTree} {
			ds := testgen.Dataset(d)
			model := textrel.NewModelWithLambda(textrel.MeasureKind(d.Measure), ds, d.Lambda)
			built := Build(ds, model, Config{Kind: kind, Fanout: d.Fanout})
			cb := &countingBackend{Backend: built.Backend()}
			var cache int64
			if d.Cached {
				cache = 1 << 20
			}
			tree, err := Restore(ds, model, cb, built.EncodeMeta(), cache)
			if err != nil {
				t.Fatal(err)
			}
			if err := testgen.Replay(d, func(del int32, o *dataset.Object) error {
				before := cb.writes
				next, err := tree.With(del, o)
				if err != nil {
					return err
				}
				if got, rewritten := cb.writes-before, rewrittenNodes(tree, next); got != 2*rewritten {
					return fmt.Errorf("wrote %d records for %d rewritten nodes", got, rewritten)
				}
				tree = next
				checkStoredAggregates(t, tree)
				return nil
			}); err != nil {
				t.Fatalf("seed %d %v: %v", seed, kind, err)
			}
		}
	})
}
