package irtree

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/storage"
	"repro/internal/textrel"
)

// historyFanout puts 2,000 objects in 46 leaves under a root of two
// entries: one holding 44 leaves, the other 2.
const historyFanout = 44

// writeHistoryEvents counts the structural changes a history made.
type writeHistoryEvents struct {
	rootShrinks, rootSplits, splits int
}

// check fails unless the history shrank the root, split it and split
// nodes below it.
func (ev writeHistoryEvents) check(t *testing.T) {
	t.Helper()
	if ev.rootShrinks == 0 || ev.rootSplits == 0 || ev.splits == 0 {
		t.Fatalf("history made %d root shrinks, %d root splits and %d other splits; it needs each", ev.rootShrinks, ev.rootSplits, ev.splits)
	}
	t.Logf("%d root shrinks, %d root splits, %d other splits", ev.rootShrinks, ev.rootSplits, ev.splits)
}

// smallerRootChildObjects lists the objects under the root's child with
// the fewest, in tree order. The root must have two children.
func smallerRootChildObjects(t *testing.T, tree *Tree) []int32 {
	t.Helper()
	root, err := tree.ReadNode(tree.RootID())
	if err != nil {
		t.Fatal(err)
	}
	if root.Leaf || len(root.Entries) != 2 {
		t.Fatalf("root has %d entries (leaf %v), want an internal root of 2", len(root.Entries), root.Leaf)
	}
	small := root.Entries[0]
	if root.Entries[1].Count < small.Count {
		small = root.Entries[1]
	}
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
	walk(small.Child)
	return out
}

// applyWriteHistory applies the seeded 300-step history to tree and
// returns the last snapshot: first every object under the root's smaller
// child is deleted, which shrinks the root to its full child, then adds,
// updates and deletes follow at random, and adds into full leaves split
// them and the root. New objects are taken from pool in order. Retired
// records are reclaimed after every step, as the facade's writer does.
func applyWriteHistory(t *testing.T, tree *Tree, pool []dataset.Object, seed int64) (*Tree, writeHistoryEvents) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var ev writeHistoryEvents
	live := liveObjects(t, tree)
	step := func(next *Tree, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case next.Height() < tree.Height():
			ev.rootShrinks++
		case next.Height() > tree.Height():
			ev.rootSplits++
		case next.NumNodes() > tree.NumNodes():
			ev.splits++
		}
		next.ReclaimRetired()
		tree = next
	}
	newObject := func() dataset.Object {
		o := pool[0]
		pool = pool[1:]
		o.ID = int32(len(tree.Dataset().Objects))
		return o
	}
	removeLive := func(i int) int32 {
		id := live[i]
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
		return id
	}

	steps := 0
	for _, id := range smallerRootChildObjects(t, tree) {
		for i := range live {
			if live[i] == id {
				removeLive(i)
				break
			}
		}
		step(tree.With(id, nil))
		steps++
	}
	for ; steps < 300; steps++ {
		switch r := rng.Intn(4); {
		case r < 2:
			o := newObject()
			step(tree.With(-1, &o))
			live = append(live, o.ID)
		case r == 2:
			del, o := removeLive(rng.Intn(len(live))), newObject()
			step(tree.With(del, &o))
			live = append(live, o.ID)
		default:
			step(tree.With(removeLive(rng.Intn(len(live))), nil))
		}
	}
	return tree, ev
}

// fileDigest writes tree to an index file, its metadata as the root
// record, and returns the file's sha256 and length.
func fileDigest(t *testing.T, tree *Tree) (string, int) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tree.idx")
	if err := storage.WriteFile(path, tree.Backend(), tree.EncodeMeta()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), len(raw)
}

// reopen writes tree to an index file and restores it from the file, the
// metadata record freed as persist.Load frees the master record.
func reopen(t *testing.T, tree *Tree, ds *dataset.Dataset) *Tree {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tree.idx")
	if err := storage.WriteFile(path, tree.Backend(), tree.EncodeMeta()); err != nil {
		t.Fatal(err)
	}
	pager, root, err := storage.OpenPager(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pager.Close() })
	meta, err := pager.ReadRecord(root)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Restore(ds, tree.Model(), pager, meta, 0)
	if err != nil {
		t.Fatal(err)
	}
	pager.Reclaim([]storage.PageID{root})
	return loaded
}

// TestWriteHistoryDigest pins the bytes the copy-on-write write path
// stores for the IR-tree: the seeded history over a 2,000-object index,
// applied to the built tree and to the tree written to a file and
// restored from it, must leave the same file. Its digest was recorded when
// LM postings came to store increments without the smoothing floor, and
// its length is the one the varint-delta layout before the fixed-stride
// one gave: at fanout 44 every record kept its length. The MIR-tree's twin
// runs through the facade.
func TestWriteHistoryDigest(t *testing.T) {
	const want, wantLen = "dba8cf1810add90b3cdf0d1678c21e070558676cde6880f637145e00618cd675", 807507
	full := dataset.GenerateFlickr(dataset.FlickrConfig{
		NumObjects: 2400, VocabSize: 400, MeanTags: 5, NumCluster: 8, Zipf: 1.1, Seed: 31,
	})
	model := textrel.NewScorer(full, textrel.LM, 0.5).Model
	for _, name := range []string{"built", "loaded"} {
		t.Run(name, func(t *testing.T) {
			// Each run appends to its own object slice.
			ds := &dataset.Dataset{
				Objects: append([]dataset.Object(nil), full.Objects[:2000]...),
				Vocab:   full.Vocab,
				Stats:   full.Stats,
				Space:   full.Space,
			}
			tree := Build(ds, model, Config{Kind: IRTree, Fanout: historyFanout})
			if name == "loaded" {
				tree = reopen(t, tree, ds)
			}
			tree, ev := applyWriteHistory(t, tree, full.Objects[2000:], 7)
			ev.check(t)
			got, n := fileDigest(t, tree)
			if n != wantLen {
				t.Fatalf("file of %d bytes, want %d", n, wantLen)
			}
			if got != want {
				t.Fatalf("file sha256 %s, want %s", got, want)
			}
		})
	}
}
