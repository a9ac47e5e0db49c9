package rtree

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/geo"
)

func randomItems(n int, seed int64) []Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]Item, n)
	for i := range items {
		p := geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		items[i] = Item{Ref: int32(i), Rect: geo.RectFromPoint(p)}
	}
	return items
}

// validate checks the structural invariants of a bulk-loaded tree: no
// empty node, fanout within bounds (root excepted), every entry rectangle
// containing its child's MBR, uniform leaf depth, and every item stored
// exactly once under its own rectangle. It returns the first violation.
func validate(t *Tree, items []Item) error {
	if t.root == NoNode {
		if len(items) != 0 {
			return fmt.Errorf("empty tree over %d items", len(items))
		}
		return nil
	}
	want := make(map[int32]geo.Rect, len(items))
	for _, it := range items {
		want[it.Ref] = it.Rect
	}
	leafDepth := -1
	var walk func(id int32, depth int) error
	walk = func(id int32, depth int) error {
		n := t.nodes[id]
		if len(n.Entries) == 0 {
			return fmt.Errorf("node %d empty", id)
		}
		if id != t.root && len(n.Entries) > t.maxEntries {
			return fmt.Errorf("node %d overflows (%d > %d)", id, len(n.Entries), t.maxEntries)
		}
		if n.Leaf {
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				return fmt.Errorf("leaf depth %d != %d", depth, leafDepth)
			}
			for _, e := range n.Entries {
				r, ok := want[e.Child]
				if !ok {
					return fmt.Errorf("item %d missing from the input or stored twice", e.Child)
				}
				if r != e.Rect {
					return fmt.Errorf("item %d stored under %v, want %v", e.Child, e.Rect, r)
				}
				delete(want, e.Child)
			}
			return nil
		}
		for _, e := range n.Entries {
			if child := t.nodes[e.Child]; !e.Rect.ContainsRect(child.MBR()) {
				return fmt.Errorf("entry rect %v does not contain child %d MBR %v", e.Rect, e.Child, child.MBR())
			}
			if err := walk(e.Child, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 0); err != nil {
		return err
	}
	if len(want) != 0 {
		return fmt.Errorf("%d items unreachable", len(want))
	}
	return nil
}

func TestBulkLoadValidates(t *testing.T) {
	for _, n := range []int{0, 1, 5, 64, 65, 1000, 5000} {
		items := randomItems(n, int64(n))
		if err := validate(BulkLoad(items, 16), items); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestBulkLoadHeight(t *testing.T) {
	if h := BulkLoad(nil, 16).Height(); h != 0 {
		t.Errorf("empty height = %d", h)
	}
	if h := BulkLoad(randomItems(10, 1), 16).Height(); h != 1 {
		t.Errorf("10 items fanout 16: height = %d, want 1", h)
	}
	if h := BulkLoad(randomItems(1000, 1), 16).Height(); h < 2 || h > 4 {
		t.Errorf("1000 items fanout 16: height = %d, want 2..4", h)
	}
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("maxEntries < 4 should panic")
		}
	}()
	New(3)
}

func TestNodeAccessors(t *testing.T) {
	tree := BulkLoad(randomItems(100, 51), 8)
	root := tree.Node(tree.RootID())
	if root == nil || len(root.Entries) == 0 {
		t.Fatal("bad root")
	}
	if tree.NumNodes() <= 0 {
		t.Error("NumNodes must be positive")
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown node id should panic")
		}
	}()
	tree.Node(9999)
}

func TestRectItems(t *testing.T) {
	// non-point rectangles work end to end
	rng := rand.New(rand.NewSource(61))
	items := make([]Item, 200)
	for i := range items {
		min := geo.Point{X: rng.Float64() * 90, Y: rng.Float64() * 90}
		items[i] = Item{Ref: int32(i), Rect: geo.Rect{
			Min: min,
			Max: geo.Point{X: min.X + rng.Float64()*10, Y: min.Y + rng.Float64()*10},
		}}
	}
	if err := validate(BulkLoad(items, 8), items); err != nil {
		t.Fatal(err)
	}
}
