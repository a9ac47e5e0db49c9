package irtree

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/invfile"
	"repro/internal/storage"
	"repro/internal/vocab"
)

// This file implements incremental maintenance — the paper's Section 5.1
// promise that "the update costs of the MIR-tree are the same as the
// IR-tree" — as copy-on-write mutations over immutable snapshots. A
// mutation prepares its changes entirely off to the side: it keeps a
// working copy of every node it modifies, and when it publishes each such
// node is encoded and written to the record store once and the node-id →
// record table is path-copied chunk by chunk. A working copy's inverted
// file is its encoded bytes: replacing one entry's postings splices the
// record (invfile.ReplaceEntry) and a child's aggregate is read off its
// record (invfile.Aggregate), so a mutation neither decodes nor re-encodes
// the files along its path, and freeze stores the bytes as they are. A
// node whose whole file changes is composed by composeInv, as in Build.
// Nothing a published snapshot can reach is touched until no reader pins
// it, so readers traverse concurrently with zero synchronization; the
// facade installs the returned successor snapshot with one atomic pointer
// swap.
//
// Term weights are computed under the corpus statistics frozen at Build
// time (the standard IR practice: collection statistics refresh on
// rebuild, not per document), which is what makes every snapshot answer
// byte-identically to a batch build over its live objects.

// WithInsert returns a successor snapshot containing o. The object's ID
// must equal the snapshot's object count (ids are append-only; deletes
// leave dead slots); o is appended to the successor's dataset. On error
// the receiver is unchanged and no state was published. Single writer
// only.
func (t *Tree) WithInsert(o dataset.Object) (*Tree, error) {
	m := t.newMutation()
	if err := m.insert(o); err != nil {
		return nil, err
	}
	return m.freeze(), nil
}

// WithDelete returns a successor snapshot without object id. The object
// keeps its dataset slot (ids never shift) but is no longer reachable
// from the tree. On error the receiver is unchanged. Single writer only.
func (t *Tree) WithDelete(id int32) (*Tree, error) {
	m := t.newMutation()
	if err := m.delete(id); err != nil {
		return nil, err
	}
	return m.freeze(), nil
}

// WithReplace deletes object del and inserts o as one mutation: the two
// steps publish as a single successor snapshot (one epoch), so no reader
// can ever observe the in-between state with the object missing. On
// error the receiver is unchanged. Single writer only.
func (t *Tree) WithReplace(del int32, o dataset.Object) (*Tree, error) {
	m := t.newMutation()
	if err := m.delete(del); err != nil {
		return nil, err
	}
	if err := m.insert(o); err != nil {
		return nil, err
	}
	return m.freeze(), nil
}

// mutation is the writer's private workspace: a copy-on-write node-table
// edit, the working object slice, the working copy of every node rewritten
// so far, and the records this mutation supersedes. Reads are served from
// the working copies first, so a later step of the same mutation sees an
// earlier step's writes without a trip through the store; nothing is
// written, and nothing is visible to readers, until freeze.
type mutation struct {
	t       *Tree
	edit    *tableEdit
	objects []dataset.Object
	rootID  int32
	height  int
	retired storage.RetireSet
	dirty   map[int32]*workNode
	// composer writes the records composeNode rewrites whole.
	composer invfile.Composer
}

// workNode is the mutation's private copy of one rewritten node, its
// inverted file encoded. Its records do not exist yet: node.InvID is
// InvalidPage until freeze.
type workNode struct {
	node *NodeData
	inv  []byte
}

func (t *Tree) newMutation() *mutation {
	return &mutation{
		t:       t,
		edit:    editOf(t.nodes),
		objects: t.ds.Objects,
		rootID:  t.rootID,
		height:  t.height,
		dirty:   make(map[int32]*workNode),
	}
}

// freeze writes every working copy to the store, one node record and one
// inverted file each, in ascending node id so the record addresses are a
// function of the mutation alone. It then publishes the mutation as an
// immutable successor snapshot and applies the retirement set:
// decoded-cache entries of superseded records are evicted in one batch
// (readers pinning older snapshots simply re-decode on demand), and the
// shared ledger is advanced. The working object slice grows append-only
// over the base snapshot's, so existing readers never observe the new
// elements.
func (m *mutation) freeze() *Tree {
	base := m.t
	ids := make([]int32, 0, len(m.dirty))
	for id := range m.dirty {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		w := m.dirty[id]
		invID := base.sh.pager.WriteRecord(w.inv)
		m.edit.set(id, base.sh.pager.WriteRecord(encodeNode(w.node.Leaf, w.node.Entries, invID)))
	}
	nt := &Tree{
		sh: base.sh,
		ds: &dataset.Dataset{
			Objects: m.objects,
			Vocab:   base.ds.Vocab,
			Stats:   base.ds.Stats,
			Space:   base.ds.Space,
		},
		nodes:    m.edit.nodeTable,
		rootID:   m.rootID,
		height:   m.height,
		numNodes: m.edit.n,
		epoch:    base.epoch + 1,
	}
	records, pages := m.retired.Apply(base.sh.decoded, base.sh.pager)
	base.sh.retiredRecords.Add(records)
	base.sh.retiredPages.Add(pages)
	if m.retired.Len() > 0 {
		// Queue the retired records for page reuse; ReclaimRetired frees
		// them once no pinned snapshot below this epoch remains. Only
		// enqueued here — reclaiming before the facade publishes nt would
		// starve readers racing TryPin against an unpublished epoch.
		base.sh.pending = append(base.sh.pending, pendingRetire{epoch: nt.epoch, ids: m.retired.IDs()})
	}
	return nt
}

// readNode returns the working copy of a node this mutation has rewritten,
// and otherwise decodes a private *NodeData through the edit table. Never
// from the decoded cache: the returned node may be mutated freely, as long
// as a node already rewritten is handed back to writeNodeData.
func (m *mutation) readNode(id int32) (*NodeData, error) {
	if w, ok := m.dirty[id]; ok {
		return w.node, nil
	}
	page := m.edit.page(id)
	if page == storage.InvalidPage {
		return nil, fmt.Errorf("irtree: unknown node %d", id)
	}
	return m.t.decodeNodeAt(id, page)
}

// readInv returns a node's working inverted file, or the stored record's
// bytes, charged as any load of them. The stored bytes may be shared with
// readers: they are only read, and every edit (invfile.ReplaceEntry)
// writes a new buffer.
func (m *mutation) readInv(node *NodeData) ([]byte, error) {
	if w, ok := m.dirty[node.ID]; ok {
		return w.inv, nil
	}
	return m.t.readInvBytes(node.InvID)
}

// writeNodeData makes entries and the encoded inverted file inv the
// working copy of node id; freeze stores them. The first write of a node
// the base snapshot holds retires that snapshot's two records for it
// (oldInv is the inverted file's, InvalidPage when the node is new): they
// leave the decoded cache if and when this mutation publishes.
func (m *mutation) writeNodeData(id int32, leaf bool, entries []NodeEntry, inv []byte, oldInv storage.PageID) {
	if _, rewritten := m.dirty[id]; !rewritten {
		m.retired.Add(m.edit.page(id))
		m.retired.Add(oldInv)
	}
	node := &NodeData{ID: id, Leaf: leaf, Entries: entries, InvID: storage.InvalidPage}
	for _, e := range entries {
		node.Count += e.Count
	}
	m.dirty[id] = &workNode{node: node, inv: inv}
}

// dropNode removes a node that lost its last entry: its id becomes a dead
// slot, and its stored records join the retirement set unless an earlier
// write of this mutation has retired them already.
func (m *mutation) dropNode(id int32, node *NodeData) {
	if _, rewritten := m.dirty[id]; rewritten {
		delete(m.dirty, id)
	} else {
		m.retired.Add(m.edit.page(id))
		m.retired.Add(node.InvID)
	}
	m.edit.set(id, storage.InvalidPage)
}

// step records the descent through one internal node: the node id and
// the entry index taken.
type step struct {
	id    int32
	entry int
}

// insert adds o: a choose-leaf descent, posting updates along the path,
// and node splits on overflow.
func (m *mutation) insert(o dataset.Object) error {
	if int(o.ID) != len(m.objects) {
		return fmt.Errorf("irtree: object ID %d must equal the object count %d", o.ID, len(m.objects))
	}
	m.objects = append(m.objects, o)

	if m.rootID < 0 {
		// First object: a single leaf root.
		m.rootID = m.edit.alloc()
		m.height = 1
		return m.composeNode(m.rootID, true, []NodeEntry{{
			Rect: geo.RectFromPoint(o.Loc), Child: o.ID, Count: 1,
		}}, storage.InvalidPage)
	}

	// Choose-leaf descent, remembering the path (node ids + entry index
	// taken at each internal node).
	var path []step
	id := m.rootID
	for {
		node, err := m.readNode(id)
		if err != nil {
			return err
		}
		if node.Leaf {
			break
		}
		best, bestEnl, bestArea := 0, math.Inf(1), math.Inf(1)
		target := geo.RectFromPoint(o.Loc)
		for i, e := range node.Entries {
			enl := e.Rect.Enlargement(target)
			area := e.Rect.Area()
			if enl < bestEnl || (enl == bestEnl && area < bestArea) {
				best, bestEnl, bestArea = i, enl, area
			}
		}
		path = append(path, step{id, best})
		id = node.Entries[best].Child
	}

	// Add the object to the leaf.
	leaf, err := m.readNode(id)
	if err != nil {
		return err
	}
	leafInv, err := m.readInv(leaf)
	if err != nil {
		return err
	}
	entryIdx := int32(len(leaf.Entries))
	leaf.Entries = append(leaf.Entries, NodeEntry{
		Rect: geo.RectFromPoint(o.Loc), Child: o.ID, Count: 1,
	})

	splitID := int32(-1)
	fanout := m.t.sh.cfgFanout
	if len(leaf.Entries) > fanout {
		splitID, err = m.splitNode(id, leaf)
		if err != nil {
			return err
		}
	} else {
		weights := make([]invfile.EntryWeight, 0, o.Doc.Unique())
		m.t.sh.eachWeight(o.Doc, func(tm vocab.TermID, w float64) {
			weights = append(weights, invfile.EntryWeight{Term: tm, MaxW: w, MinW: w})
		})
		if leafInv, err = invfile.ReplaceEntry(leafInv, entryIdx, weights); err != nil {
			return err
		}
		m.writeNodeData(id, true, leaf.Entries, leafInv, leaf.InvID)
	}

	// Propagate rect/count/posting updates (and any split) to the root.
	childID, childSplit := id, splitID
	for level := len(path) - 1; level >= 0; level-- {
		parentID, entryIdx := path[level].id, path[level].entry
		parent, err := m.readNode(parentID)
		if err != nil {
			return err
		}
		parentInv, err := m.readInv(parent)
		if err != nil {
			return err
		}

		// Refresh the taken entry from the child's new aggregate.
		var agg, sAgg []invfile.EntryWeight
		if parent.Entries[entryIdx], agg, err = m.aggregateOf(childID); err != nil {
			return err
		}
		if childSplit >= 0 {
			var sEntry NodeEntry
			if sEntry, sAgg, err = m.aggregateOf(childSplit); err != nil {
				return err
			}
			parent.Entries = append(parent.Entries, sEntry)
		}

		// An overflowing parent is split, each half's file rebuilt from its
		// children, so a splice only ever writes an entry below the fanout,
		// which the record's delta width holds.
		if len(parent.Entries) > fanout {
			if childSplit, err = m.splitNode(parentID, parent); err != nil {
				return err
			}
		} else {
			if parentInv, err = invfile.ReplaceEntry(parentInv, int32(entryIdx), agg); err != nil {
				return err
			}
			if childSplit >= 0 {
				if parentInv, err = invfile.ReplaceEntry(parentInv, int32(len(parent.Entries)-1), sAgg); err != nil {
					return err
				}
			}
			childSplit = -1
			m.writeNodeData(parentID, false, parent.Entries, parentInv, parent.InvID)
		}
		childID = parentID
	}

	// Root overflowed: grow the tree.
	if childSplit >= 0 {
		entries := make([]NodeEntry, 2)
		for i, cid := range []int32{childID, childSplit} {
			child, err := m.readNode(cid)
			if err != nil {
				return err
			}
			entries[i] = NodeEntry{Rect: child.MBR(), Child: cid, Count: child.Count}
		}
		m.rootID = m.edit.alloc()
		m.height++
		return m.composeNode(m.rootID, false, entries, storage.InvalidPage)
	}
	return nil
}

// delete removes object oid from the tree: find the holding leaf, drop
// its entry, and propagate upward — underfull nodes are allowed (answer
// correctness never depends on fill factors), emptied nodes cascade out
// of their parents, and an internal root left with a single entry is
// shrunk away.
func (m *mutation) delete(oid int32) error {
	if oid < 0 || int(oid) >= len(m.objects) {
		return fmt.Errorf("irtree: no object %d", oid)
	}
	if m.rootID < 0 {
		return fmt.Errorf("irtree: object %d not in tree", oid)
	}
	loc := m.objects[oid].Loc
	var path []step
	leafID, entryIdx, found, err := m.findLeaf(m.rootID, oid, loc, &path)
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("irtree: object %d not in tree", oid)
	}

	leaf, err := m.readNode(leafID)
	if err != nil {
		return err
	}
	entries := append(leaf.Entries[:entryIdx:entryIdx], leaf.Entries[entryIdx+1:]...)
	removed := len(entries) == 0
	if removed {
		m.dropNode(leafID, leaf)
	} else if err := m.composeNode(leafID, true, entries, leaf.InvID); err != nil {
		return err
	}

	childID := leafID
	for level := len(path) - 1; level >= 0; level-- {
		parentID, pIdx := path[level].id, path[level].entry
		parent, err := m.readNode(parentID)
		if err != nil {
			return err
		}
		if removed {
			// The child vanished: drop its entry. Entry indexes shift, so
			// the inverted file is rebuilt from the remaining children.
			pEntries := append(parent.Entries[:pIdx:pIdx], parent.Entries[pIdx+1:]...)
			removed = len(pEntries) == 0
			if removed {
				m.dropNode(parentID, parent)
			} else if err := m.composeNode(parentID, false, pEntries, parent.InvID); err != nil {
				return err
			}
		} else {
			// The child shrank in place: refresh its entry's rect, count
			// and postings.
			parentInv, err := m.readInv(parent)
			if err != nil {
				return err
			}
			var agg []invfile.EntryWeight
			if parent.Entries[pIdx], agg, err = m.aggregateOf(childID); err != nil {
				return err
			}
			if parentInv, err = invfile.ReplaceEntry(parentInv, int32(pIdx), agg); err != nil {
				return err
			}
			m.writeNodeData(parentID, false, parent.Entries, parentInv, parent.InvID)
		}
		childID = parentID
	}

	if removed {
		// The last object left: the tree is empty again.
		m.rootID = -1
		m.height = 0
		return nil
	}

	// Shrink an internal root down to its only child (repeatedly, in case
	// a cascade left a chain of single-entry roots).
	for {
		root, err := m.readNode(m.rootID)
		if err != nil {
			return err
		}
		if root.Leaf || len(root.Entries) > 1 {
			return nil
		}
		child := root.Entries[0].Child
		m.dropNode(m.rootID, root)
		m.rootID = child
		m.height--
	}
}

// findLeaf descends every subtree whose rect contains the object's
// location until it finds the leaf entry referencing oid, recording the
// taken path. R-tree rects overlap, so this may explore several branches;
// path always reflects the branch currently being explored.
func (m *mutation) findLeaf(id, oid int32, loc geo.Point, path *[]step) (leafID int32, entryIdx int, found bool, err error) {
	node, err := m.readNode(id)
	if err != nil {
		return 0, 0, false, err
	}
	if node.Leaf {
		for i, e := range node.Entries {
			if e.Child == oid {
				return id, i, true, nil
			}
		}
		return 0, 0, false, nil
	}
	for i, e := range node.Entries {
		if !e.Rect.Contains(loc) {
			continue
		}
		*path = append(*path, step{id, i})
		leafID, entryIdx, found, err = m.findLeaf(e.Child, oid, loc, path)
		if err != nil || found {
			return leafID, entryIdx, found, err
		}
		*path = (*path)[:len(*path)-1]
	}
	return 0, 0, false, nil
}

// aggregateOf reads node id and returns the entry a parent holds for it —
// its MBR and object count — and its subtree aggregate, ascending by term,
// read in one pass off its encoded inverted file (invfile.Aggregate): a
// term's max weight is the posting maximum over entries; it is "covered"
// (min weight > 0) only when every entry carries a positive-minimum
// posting for it.
func (m *mutation) aggregateOf(id int32) (NodeEntry, []invfile.EntryWeight, error) {
	node, err := m.readNode(id)
	if err != nil {
		return NodeEntry{}, nil, err
	}
	inv, err := m.readInv(node)
	if err != nil {
		return NodeEntry{}, nil, err
	}
	agg, err := invfile.Aggregate(inv, len(node.Entries))
	return NodeEntry{Rect: node.MBR(), Child: id, Count: node.Count}, agg, err
}

// splitNode splits an overflowing decoded node (quadratic-split seeds,
// greedy assignment), writes both halves, and returns the new sibling's
// id.
func (m *mutation) splitNode(id int32, node *NodeData) (int32, error) {
	entries := node.Entries
	// seeds: the pair wasting the most area together
	seedA, seedB, worst := 0, 1, math.Inf(-1)
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			d := entries[i].Rect.Union(entries[j].Rect).Area() -
				entries[i].Rect.Area() - entries[j].Rect.Area()
			if d > worst {
				worst, seedA, seedB = d, i, j
			}
		}
	}
	groupA := []NodeEntry{entries[seedA]}
	groupB := []NodeEntry{entries[seedB]}
	rectA, rectB := entries[seedA].Rect, entries[seedB].Rect
	minFill := len(entries) * 2 / 5
	if minFill < 1 {
		minFill = 1
	}
	var rest []NodeEntry
	for i, e := range entries {
		if i != seedA && i != seedB {
			rest = append(rest, e)
		}
	}
	for len(rest) > 0 {
		if len(groupA)+len(rest) <= minFill {
			groupA = append(groupA, rest...)
			break
		}
		if len(groupB)+len(rest) <= minFill {
			groupB = append(groupB, rest...)
			break
		}
		e := rest[0]
		rest = rest[1:]
		dA, dB := rectA.Enlargement(e.Rect), rectB.Enlargement(e.Rect)
		if dA < dB || (dA == dB && len(groupA) <= len(groupB)) {
			groupA = append(groupA, e)
			rectA = rectA.Union(e.Rect)
		} else {
			groupB = append(groupB, e)
			rectB = rectB.Union(e.Rect)
		}
	}

	sibID := m.edit.alloc()
	if err := m.composeNode(id, node.Leaf, groupA, node.InvID); err != nil {
		return -1, err
	}
	if err := m.composeNode(sibID, node.Leaf, groupB, storage.InvalidPage); err != nil {
		return -1, err
	}
	return sibID, nil
}

// composeNode makes node id's working copy entries and the posting
// record composeInv gives them, superseding oldInv. The first object, a
// new root, the halves of a split, a leaf that lost an entry and a parent
// that lost a child take this path: removing an entry shifts the indexes
// after it, which a splice does not express, and each record composed is
// one node's.
func (m *mutation) composeNode(id int32, leaf bool, entries []NodeEntry, oldInv storage.PageID) error {
	var aggs [][]invfile.EntryWeight
	if !leaf {
		aggs = make([][]invfile.EntryWeight, len(entries))
		for i, e := range entries {
			var err error
			if _, aggs[i], err = m.aggregateOf(e.Child); err != nil {
				return err
			}
		}
	}
	m.writeNodeData(id, leaf, entries, m.t.sh.composeInv(&m.composer, leaf, entries, m.objects, aggs), oldInv)
	return nil
}

// composeInv encodes the posting record of a node holding entries with c
// — the one definition of what a node stores, which Build and every
// mutation that rewrites a whole record share. A leaf entry's list is its
// object's exact weights (eachWeight); an internal entry i's is aggs[i],
// its child record's aggregate (invfile.Aggregate).
func (sh *shared) composeInv(c *invfile.Composer, leaf bool, entries []NodeEntry, objects []dataset.Object, aggs [][]invfile.EntryWeight) []byte {
	for i, e := range entries {
		if leaf {
			sh.eachWeight(objects[e.Child].Doc, func(tm vocab.TermID, w float64) {
				c.Add(invfile.EntryWeight{Term: tm, MaxW: w, MinW: w})
			})
		} else {
			for _, a := range aggs[i] {
				c.Add(a)
			}
		}
		c.EndEntry()
	}
	return c.Compose(sh.kind == MIRTree, sh.cfgFanout)
}

// eachWeight calls fn with every term of doc and the weight a leaf posting
// stores for it, the term's increment in doc (textrel's Model.Weight; the
// floor a sum starts at is no posting's): the one place leaf weights are
// produced.
func (sh *shared) eachWeight(doc vocab.Doc, fn func(tm vocab.TermID, w float64)) {
	doc.ForEach(func(tm vocab.TermID, _ int32) { fn(tm, sh.model.Weight(doc, tm)) })
}
