// Package miurtree implements the Modified IUR-tree of Section 7: an
// R-tree over the user set in which every node entry is augmented with the
// union and intersection vectors of the keywords appearing in its subtree,
// the number of users stored there, and the subtree's extreme text
// normalizers. The MaxBRSTkNN engine uses it to avoid computing top-k
// objects for users that cannot affect the query result.
//
// The tree holds its nodes in memory, as built: the user index is
// per-query state, and the Section 8 cost model charges it one simulated
// I/O per node visit, never per byte, so every ReadNode charges exactly
// that and returns the shared node.
//
// A built tree is immutable and session-local: it is batch-built over a
// session's user cohort, never mutated, and therefore composes with the
// index's epoch-snapshot model as-is — a session that pins an object-tree
// snapshot keeps its MIUR-tree for all of its runs, and concurrent
// readers share it without locks.
package miurtree

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/rtree"
	"repro/internal/storage"
	"repro/internal/textrel"
	"repro/internal/vocab"
)

// NodeEntry is one node slot: a child node (internal) or a user (leaf),
// with the textual aggregates of the subtree below it.
type NodeEntry struct {
	Rect    geo.Rect
	Child   int32 // node id, or user index for leaf entries
	Count   int32 // users in the subtree (1 for leaf entries)
	Uni     []vocab.TermID
	Int     []vocab.TermID
	MinNorm float64
	MaxNorm float64
}

// NodeData is one MIUR-tree node. Nodes are shared by every reader of
// the tree and must be treated as immutable.
type NodeData struct {
	ID      int32
	Leaf    bool
	Entries []NodeEntry
}

// Tree is an in-memory MIUR-tree over a user set.
type Tree struct {
	users  []dataset.User
	io     *storage.IOCounter
	nodes  []*NodeData // indexed by node id
	rootID int32

	// Root-level aggregate (the super-user of the whole set).
	RootEntry NodeEntry
}

// Build constructs the index. The scorer supplies the per-user
// normalizers aggregated into each entry.
func Build(users []dataset.User, scorer *textrel.Scorer, fanout int) *Tree {
	if fanout == 0 {
		fanout = rtree.DefaultMaxEntries
	}
	items := make([]rtree.Item, len(users))
	for i := range users {
		items[i] = rtree.Item{Ref: int32(i), Rect: geo.RectFromPoint(users[i].Loc)}
	}
	rt := rtree.BulkLoad(items, fanout)

	t := &Tree{
		users:  users,
		io:     &storage.IOCounter{},
		nodes:  make([]*NodeData, rt.NumNodes()),
		rootID: rt.RootID(),
	}
	if rt.RootID() != rtree.NoNode {
		t.RootEntry = t.buildNode(rt, rt.RootID(), scorer)
	}
	return t
}

// buildNode assembles the subtree bottom-up and returns the entry a parent
// would hold for it.
func (t *Tree) buildNode(rt *rtree.Tree, id int32, scorer *textrel.Scorer) NodeEntry {
	n := rt.Node(id)
	entries := make([]NodeEntry, len(n.Entries))
	for i, e := range n.Entries {
		if n.Leaf {
			u := &t.users[e.Child]
			norm := scorer.Norm(u.Doc)
			entries[i] = NodeEntry{
				Rect:    e.Rect,
				Child:   e.Child,
				Count:   1,
				Uni:     u.Doc.Terms(),
				Int:     u.Doc.Terms(),
				MinNorm: norm,
				MaxNorm: norm,
			}
		} else {
			entries[i] = t.buildNode(rt, e.Child, scorer)
		}
	}
	t.nodes[id] = &NodeData{ID: id, Leaf: n.Leaf, Entries: entries}
	return mergeEntries(id, n.MBR(), entries)
}

// mergeEntries aggregates child entries into the parent-side entry.
func mergeEntries(id int32, rect geo.Rect, entries []NodeEntry) NodeEntry {
	out := NodeEntry{Rect: rect, Child: id}
	uniSet := make(map[vocab.TermID]bool)
	intCount := make(map[vocab.TermID]int)
	for i, e := range entries {
		out.Count += e.Count
		for _, tm := range e.Uni {
			uniSet[tm] = true
		}
		for _, tm := range e.Int {
			intCount[tm]++
		}
		if i == 0 || e.MinNorm < out.MinNorm {
			out.MinNorm = e.MinNorm
		}
		if i == 0 || e.MaxNorm > out.MaxNorm {
			out.MaxNorm = e.MaxNorm
		}
	}
	for tm := range uniSet {
		out.Uni = append(out.Uni, tm)
	}
	for tm, c := range intCount {
		if c == len(entries) {
			out.Int = append(out.Int, tm)
		}
	}
	sortTerms(out.Uni)
	sortTerms(out.Int)
	return out
}

func sortTerms(ts []vocab.TermID) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}

// RootID returns the root node id (rtree.NoNode when empty).
func (t *Tree) RootID() int32 { return t.rootID }

// IO returns the node-visit counter.
func (t *Tree) IO() *storage.IOCounter { return t.io }

// ReadNode returns a node, charging one simulated node-visit I/O. The
// node is shared between goroutines and must be treated as immutable.
func (t *Tree) ReadNode(id int32) (*NodeData, error) {
	if id < 0 || int(id) >= len(t.nodes) {
		return nil, fmt.Errorf("miurtree: unknown node %d", id)
	}
	t.io.NodeVisit()
	return t.nodes[id], nil
}
