// Package rtree implements the R-tree that underlies the IR-tree family
// (Section 5.1): Sort-Tile-Recursive bulk loading, which gives the initial
// shape of every index the engine builds; incremental maintenance lives in
// irtree/mutate.go. The tree stores integer references to externally owned
// items; the IR-tree, MIR-tree and MIUR-tree walk it once to serialize
// their own nodes with the textual payload attached.
package rtree

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/geo"
)

// NoNode marks the absence of a node reference.
const NoNode int32 = -1

// Item is one spatial object to index.
type Item struct {
	Ref  int32 // caller-owned identifier
	Rect geo.Rect
}

// Entry is one slot of a node: in a leaf it references an item (Child is
// the item Ref); in an internal node it references a child node.
type Entry struct {
	Rect  geo.Rect
	Child int32
}

// Node is one R-tree node.
type Node struct {
	ID      int32
	Leaf    bool
	Entries []Entry
}

// MBR returns the minimum bounding rectangle of the node's entries.
func (n *Node) MBR() geo.Rect {
	r := geo.EmptyRect()
	for _, e := range n.Entries {
		r = r.Union(e.Rect)
	}
	return r
}

// Tree is an R-tree over int32-referenced items.
type Tree struct {
	nodes      []*Node
	root       int32
	maxEntries int
}

// DefaultMaxEntries is the fanout giving node sizes comparable to a 4 kB
// page with the paper's entry layout.
const DefaultMaxEntries = 64

// New returns an empty tree with the given maximum node fanout (≥ 4).
func New(maxEntries int) *Tree {
	if maxEntries < 4 {
		panic("rtree: maxEntries must be at least 4")
	}
	return &Tree{maxEntries: maxEntries, root: NoNode}
}

// BulkLoad builds a tree over items using Sort-Tile-Recursive packing,
// which yields well-clustered square-ish leaves for static data.
func BulkLoad(items []Item, maxEntries int) *Tree {
	t := New(maxEntries)
	if len(items) == 0 {
		return t
	}
	// Leaf level: STR tiling.
	leafEntries := make([]Entry, len(items))
	for i, it := range items {
		leafEntries[i] = Entry{Rect: it.Rect, Child: it.Ref}
	}
	level := t.packLevel(leafEntries, true)
	for len(level) > 1 {
		parentEntries := make([]Entry, len(level))
		for i, id := range level {
			parentEntries[i] = Entry{Rect: t.nodes[id].MBR(), Child: id}
		}
		level = t.packLevel(parentEntries, false)
	}
	t.root = level[0]
	return t
}

// packLevel tiles entries into nodes of up to maxEntries using STR and
// returns the new node ids.
func (t *Tree) packLevel(entries []Entry, leaf bool) []int32 {
	n := len(entries)
	nodeCount := (n + t.maxEntries - 1) / t.maxEntries
	sliceCount := int(math.Ceil(math.Sqrt(float64(nodeCount))))
	perSlice := sliceCount * t.maxEntries

	sort.Slice(entries, func(i, j int) bool {
		return entries[i].Rect.Center().X < entries[j].Rect.Center().X
	})

	var ids []int32
	for lo := 0; lo < n; lo += perSlice {
		hi := lo + perSlice
		if hi > n {
			hi = n
		}
		slice := entries[lo:hi]
		sort.Slice(slice, func(i, j int) bool {
			return slice[i].Rect.Center().Y < slice[j].Rect.Center().Y
		})
		for s := 0; s < len(slice); s += t.maxEntries {
			e := s + t.maxEntries
			if e > len(slice) {
				e = len(slice)
			}
			node := t.newNode(leaf)
			node.Entries = append(node.Entries, slice[s:e]...)
			ids = append(ids, node.ID)
		}
	}
	return ids
}

func (t *Tree) newNode(leaf bool) *Node {
	n := &Node{ID: int32(len(t.nodes)), Leaf: leaf}
	t.nodes = append(t.nodes, n)
	return n
}

// RootID returns the root node id, or NoNode for an empty tree.
func (t *Tree) RootID() int32 { return t.root }

// Node returns the node with the given id.
func (t *Tree) Node(id int32) *Node {
	if id < 0 || int(id) >= len(t.nodes) {
		panic(fmt.Sprintf("rtree: unknown node %d", id))
	}
	return t.nodes[id]
}

// NumNodes returns the number of nodes; every one is reachable from the
// root.
func (t *Tree) NumNodes() int { return len(t.nodes) }

// Height returns the number of levels (0 for an empty tree, 1 for a
// root-only leaf).
func (t *Tree) Height() int {
	if t.root == NoNode {
		return 0
	}
	h := 1
	id := t.root
	for !t.nodes[id].Leaf {
		id = t.nodes[id].Entries[0].Child
		h++
	}
	return h
}
