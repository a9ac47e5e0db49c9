package maxbrstknn

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// historyWords is the keyword pool of the write-history index.
func historyWords() []string {
	words := make([]string, 300)
	for i := range words {
		words[i] = fmt.Sprintf("h%03d", i)
	}
	return words
}

// historyObject draws one object of the write-history index: a location
// in [0,10)² and two to five keywords.
func historyObject(rng *rand.Rand, words []string) (x, y float64, keywords []string) {
	x, y = rng.Float64()*10, rng.Float64()*10
	for n := 2 + rng.Intn(4); n > 0; n-- {
		keywords = append(keywords, words[rng.Intn(len(words))])
	}
	return x, y, keywords
}

// historyIndex builds the 2,000-object MIR-tree index the write history
// runs on. At fanout 44 its 46 leaves sit under a root of two entries,
// one holding 44 leaves and the other 2.
func historyIndex(t *testing.T) *Index {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	words := historyWords()
	b := NewBuilder()
	for i := 0; i < 2000; i++ {
		x, y, kws := historyObject(rng, words)
		b.AddObject(x, y, kws...)
	}
	idx, err := b.Build(Options{Fanout: 44})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// applyFacadeWriteHistory applies a seeded 300-step history through the
// facade's mutations: first it deletes every object under the root's
// smaller child, which shrinks the root to its full child, then it adds,
// updates and deletes at random, and adds into full leaves split them and
// the root. It fails unless each of those happened.
func applyFacadeWriteHistory(t *testing.T, idx *Index, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	words := historyWords()
	var shrinks, rootSplits, splits int
	tree := idx.snap.Load().tree
	root, err := tree.ReadNode(tree.RootID())
	if err != nil || root.Leaf || len(root.Entries) != 2 {
		t.Fatalf("root %+v, err %v: want an internal root of 2 entries", root, err)
	}
	small := root.Entries[0]
	if root.Entries[1].Count < small.Count {
		small = root.Entries[1]
	}
	var victims []int
	var walk func(id int32)
	walk = func(id int32) {
		n, err := tree.ReadNode(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range n.Entries {
			if n.Leaf {
				victims = append(victims, int(e.Child))
			} else {
				walk(e.Child)
			}
		}
	}
	walk(small.Child)

	var live []int // in a deterministic order
	dead := map[int]bool{}
	for _, id := range victims {
		dead[id] = true
	}
	for id := 0; id < 2000; id++ {
		if !dead[id] {
			live = append(live, id)
		}
	}
	pick := func() int {
		i := rng.Intn(len(live))
		id := live[i]
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
		return id
	}
	step := func(mutate func() error) {
		t.Helper()
		before := idx.snap.Load().tree
		if err := mutate(); err != nil {
			t.Fatal(err)
		}
		after := idx.snap.Load().tree
		switch {
		case after.Height() < before.Height():
			shrinks++
		case after.Height() > before.Height():
			rootSplits++
		case after.NumNodes() > before.NumNodes():
			splits++
		}
	}
	added := func(id int, err error) error {
		live = append(live, id)
		return err
	}

	steps := 0
	for _, id := range victims {
		step(func() error { return idx.DeleteObject(id) })
		steps++
	}
	for ; steps < 300; steps++ {
		switch r := rng.Intn(4); {
		case r < 2:
			x, y, kws := historyObject(rng, words)
			step(func() error { return added(idx.AddObject(x, y, kws...)) })
		case r == 2:
			id := pick()
			x, y, kws := historyObject(rng, words)
			step(func() error { return added(idx.UpdateObject(id, x, y, kws...)) })
		default:
			id := pick()
			step(func() error { return idx.DeleteObject(id) })
		}
	}
	if shrinks == 0 || rootSplits == 0 || splits == 0 {
		t.Fatalf("history made %d root shrinks, %d root splits and %d other splits; it needs each", shrinks, rootSplits, splits)
	}
	t.Logf("%d root shrinks, %d root splits, %d other splits", shrinks, rootSplits, splits)
}

// TestWriteHistoryDigest pins the bytes the copy-on-write write path
// stores for the MIR-tree: a seeded add/update/delete history over a
// 2,000-object index, applied to the built index and to it saved and
// loaded, must Save the same file. Its length was recorded when the
// master record took the corpus context, and its digest when the Language
// Model's postings and maxima became increments without the smoothing
// floor (master version 6). internal/irtree pins the IR-tree's.
func TestWriteHistoryDigest(t *testing.T) {
	const want, wantLen = "d976a1bd7ecc822b7b6081f9dbbdc72eff23cc855eb5236383c19966b8935ade", 963184
	for _, kind := range storageKinds {
		t.Run(kind.name, func(t *testing.T) {
			idx := kind.of(t, historyIndex(t))
			applyFacadeWriteHistory(t, idx, 43)
			path := filepath.Join(t.TempDir(), "history.mxbr")
			if err := idx.Save(path); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(raw) != wantLen {
				t.Fatalf("saved file of %d bytes, want %d", len(raw), wantLen)
			}
			sum := sha256.Sum256(raw)
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Fatalf("saved file sha256 %s, want %s", got, want)
			}
		})
	}
}
