// Package miurtree implements the Modified IUR-tree of Section 7: an
// R-tree over the user set in which every node entry holds the super-user
// of its subtree, the group aggregate of the joint top-k (topk.SuperUser):
// a leaf entry is topk.OneUser of its user, any other topk.Merge of its
// child node's entries. The MaxBRSTkNN engine uses it to avoid computing
// top-k objects for users that cannot affect the query result.
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
	"repro/internal/topk"
)

// NodeEntry is one node slot: a child node (internal) or a user (leaf),
// and the super-user of the users beneath it — its MBR, keyword union and
// intersection, user count and extreme normalizers (Section 7: an entry is
// "essentially the same as the super-user").
type NodeEntry struct {
	topk.SuperUser
	Child int32 // node id, or user index for leaf entries
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
	groups := make([]topk.SuperUser, len(n.Entries))
	for i, e := range n.Entries {
		if n.Leaf {
			u := &t.users[e.Child]
			entries[i] = NodeEntry{SuperUser: topk.OneUser(u, scorer.Norm(u.Doc)), Child: e.Child}
		} else {
			entries[i] = t.buildNode(rt, e.Child, scorer)
		}
		groups[i] = entries[i].SuperUser
	}
	t.nodes[id] = &NodeData{ID: id, Leaf: n.Leaf, Entries: entries}
	return NodeEntry{SuperUser: topk.Merge(groups), Child: id}
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
