package irtree

import (
	"fmt"
	"maps"
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
// IR-tree" — as Guttman's R-tree insert and delete, copy-on-write over
// immutable snapshots. The tree operations change entries only: insert
// chooses a leaf and delete finds one, edit its entries, and hand it to
// carry, which takes the change up to the root. Every node they change
// becomes a private working copy; nothing is written, and nothing is
// visible to readers, until freeze publishes the mutation. Freeze first
// settles each working copy's posting record once, rewritten children
// before parents: a new node, a split half or a node whose entries
// shifted is composed whole by composeInv, as in Build; any other keeps
// its base record with each changed entry spliced (invfile.ReplaceEntry)
// — a rewritten child's aggregate, read off the child's settled record
// (invfile.Aggregate), or a newly inserted object's weights. It then
// writes each node's two records and path-copies the node-id → record
// table chunk by chunk. Nothing a published snapshot can reach is touched
// until no reader pins it, so readers traverse concurrently with zero
// synchronization; the facade installs the returned successor snapshot
// with one atomic pointer swap.
//
// Term weights are computed under the corpus statistics frozen at Build
// time (the standard IR practice: collection statistics refresh on
// rebuild, not per document), which is what makes every snapshot answer
// byte-identically to a batch build over its live objects.

// With returns a successor snapshot: object del is deleted unless del is
// negative, then o is inserted unless it is nil. Both publish as one
// snapshot (one epoch), so no reader can observe an update with the
// object missing. A deleted object keeps its dataset slot (ids never
// shift) but is no longer reachable from the tree; o's ID must equal the
// snapshot's object count (ids are append-only), and o is appended to the
// successor's dataset. On error the receiver is unchanged and nothing was
// published, written or retired. Single writer only.
func (t *Tree) With(del int32, o *dataset.Object) (*Tree, error) {
	m := t.newMutation()
	if del >= 0 {
		if err := m.delete(del); err != nil {
			return nil, err
		}
	}
	if o != nil {
		if err := m.insert(*o); err != nil {
			return nil, err
		}
	}
	return m.freeze()
}

// mutation is the writer's private workspace: a copy-on-write node-table
// edit, the working object slice, the working copy of every node rewritten
// so far, and the records this mutation supersedes. Reads are served from
// the working copies first, so a later step of the same mutation sees an
// earlier step's entries.
type mutation struct {
	t       *Tree
	edit    *tableEdit
	objects []dataset.Object
	rootID  int32
	height  int
	dirty   map[int32]*workNode
	// retired lists the base snapshot's records of every node rewritten
	// or dropped, in the order the nodes were first touched.
	retired []storage.PageID
	// composer writes the records settle composes whole.
	composer invfile.Composer
}

// workNode is the mutation's private copy of one rewritten node. Its
// records do not exist until freeze: node.InvID is InvalidPage, and inv
// is nil until the node is settled.
type workNode struct {
	node *NodeData
	// base is the stored posting record settle splices, or InvalidPage
	// when the record is composed whole: the node is new or a split half,
	// or its entries shifted.
	base storage.PageID
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

// freeze settles every working copy, then writes each one's posting
// record and node record, in ascending node id so the record addresses
// are a function of the mutation alone. A settle that fails returns its
// error before anything is written or retired. freeze then publishes the
// mutation as an immutable successor snapshot and retires the superseded
// records: their decoded-cache entries are evicted in one batch (readers
// pinning older snapshots simply re-decode on demand), and they join the
// shared ledger. Such a reader may re-insert an entry evicted here, so
// ReclaimRetired evicts once more before freeing the pages: correctness
// rests on that pair, as a decoded node and a detached posting directory
// name their record by address and would otherwise read whatever record
// reuses the slot. The working object slice grows append-only over the
// base snapshot's, so existing readers never observe the new elements.
func (m *mutation) freeze() (*Tree, error) {
	base := m.t
	ids := slices.Sorted(maps.Keys(m.dirty))
	for _, id := range ids {
		if err := m.settle(m.dirty[id]); err != nil {
			return nil, err
		}
	}
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
	if len(m.retired) > 0 {
		var pages int64
		for _, id := range m.retired {
			pages += int64(base.sh.pager.RecordPages(id))
			base.sh.decoded.Delete(id)
		}
		base.sh.retiredRecords.Add(int64(len(m.retired)))
		base.sh.retiredPages.Add(pages)
		// Queue the retired records for page reuse; ReclaimRetired frees
		// them once no pinned snapshot below this epoch remains. Only
		// enqueued here — reclaiming before the facade publishes nt would
		// starve readers racing TryPin against an unpublished epoch.
		base.sh.pending = append(base.sh.pending, pendingRetire{epoch: nt.epoch, ids: m.retired})
	}
	return nt, nil
}

// readNode returns the working copy of a node this mutation has rewritten,
// and otherwise decodes a private *NodeData through the edit table. Never
// from the decoded cache: the returned node may be edited freely, as long
// as it is then handed to rewrite or drop.
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

// rewrite makes node, its entries edited, the working copy of its id and
// recounts its objects. shifted says an entry was removed: the indexes
// after it moved, which a splice does not express, so the record is
// composed whole. The first rewrite of a node the base snapshot holds
// retires that snapshot's two records for it.
func (m *mutation) rewrite(node *NodeData, shifted bool) {
	w, ok := m.dirty[node.ID]
	if !ok {
		m.retire(node)
		w = &workNode{base: node.InvID}
		m.dirty[node.ID] = w
	}
	if shifted {
		w.base = storage.InvalidPage
	}
	node.Count, node.InvID = 0, storage.InvalidPage
	for _, e := range node.Entries {
		node.Count += e.Count
	}
	w.node = node
}

// newNode allocates a node holding entries, to be composed whole.
func (m *mutation) newNode(leaf bool, entries []NodeEntry) *NodeData {
	node := &NodeData{ID: m.edit.alloc(), Leaf: leaf, Entries: entries, InvID: storage.InvalidPage}
	m.rewrite(node, true)
	return node
}

// drop removes a node that lost its last entry, or a root shrunk away:
// its id becomes a dead slot, and its stored records are retired unless a
// rewrite retired them already.
func (m *mutation) drop(node *NodeData) {
	if _, ok := m.dirty[node.ID]; ok {
		delete(m.dirty, node.ID)
	} else {
		m.retire(node)
	}
	m.edit.set(node.ID, storage.InvalidPage)
}

// retire lists the records the base snapshot holds for node: none for a
// node this mutation allocated.
func (m *mutation) retire(node *NodeData) {
	for _, id := range []storage.PageID{m.edit.page(node.ID), node.InvID} {
		if id != storage.InvalidPage {
			m.retired = append(m.retired, id)
		}
	}
}

// step records the descent through one internal node: the node and the
// entry index taken.
type step struct {
	node  *NodeData
	entry int
}

// insert adds o: a choose-leaf descent, then the leaf gains o's entry and
// carry takes it to the root.
func (m *mutation) insert(o dataset.Object) error {
	if int(o.ID) != len(m.objects) {
		return fmt.Errorf("irtree: object ID %d must equal the object count %d", o.ID, len(m.objects))
	}
	m.objects = append(m.objects, o)
	target := geo.RectFromPoint(o.Loc)
	entry := NodeEntry{Rect: target, Child: o.ID, Count: 1}
	if m.rootID < 0 {
		// First object: a single leaf root.
		m.rootID, m.height = m.newNode(true, []NodeEntry{entry}).ID, 1
		return nil
	}

	// Choose-leaf descent, remembering the path (nodes + entry index taken
	// at each internal node).
	var path []step
	node, err := m.readNode(m.rootID)
	for err == nil && !node.Leaf {
		best, bestEnl, bestArea := 0, math.Inf(1), math.Inf(1)
		for i, e := range node.Entries {
			enl := e.Rect.Enlargement(target)
			area := e.Rect.Area()
			if enl < bestEnl || (enl == bestEnl && area < bestArea) {
				best, bestEnl, bestArea = i, enl, area
			}
		}
		path = append(path, step{node, best})
		node, err = m.readNode(node.Entries[best].Child)
	}
	if err != nil {
		return err
	}
	node.Entries = append(node.Entries, entry)
	return m.carry(path, node, false)
}

// delete removes object oid from the tree: find the holding leaf, drop
// its entry, and carry the change to the root. Underfull nodes are
// allowed (answer correctness never depends on fill factors).
func (m *mutation) delete(oid int32) error {
	if oid < 0 || int(oid) >= len(m.objects) {
		return fmt.Errorf("irtree: no object %d", oid)
	}
	if m.rootID < 0 {
		return fmt.Errorf("irtree: object %d not in tree", oid)
	}
	var path []step
	leaf, i, err := m.findLeaf(m.rootID, oid, m.objects[oid].Loc, &path)
	if err != nil {
		return err
	}
	if leaf == nil {
		return fmt.Errorf("irtree: object %d not in tree", oid)
	}
	leaf.Entries = slices.Delete(leaf.Entries, i, i+1)
	return m.carry(path, leaf, true)
}

// findLeaf descends every subtree whose rect contains the object's
// location until it finds the leaf entry referencing oid, recording the
// taken path, and returns the leaf (nil when no leaf holds oid) and the
// entry's index. R-tree rects overlap, so this may explore several
// branches; path always reflects the branch currently being explored.
func (m *mutation) findLeaf(id, oid int32, loc geo.Point, path *[]step) (*NodeData, int, error) {
	node, err := m.readNode(id)
	if err != nil {
		return nil, 0, err
	}
	if node.Leaf {
		for i, e := range node.Entries {
			if e.Child == oid {
				return node, i, nil
			}
		}
		return nil, 0, nil
	}
	for i, e := range node.Entries {
		if !e.Rect.Contains(loc) {
			continue
		}
		*path = append(*path, step{node, i})
		if leaf, j, err := m.findLeaf(e.Child, oid, loc, path); err != nil || leaf != nil {
			return leaf, j, err
		}
		*path = (*path)[:len(*path)-1]
	}
	return nil, 0, nil
}

// carry takes node, whose entries insert or delete edited (shifted when
// one was removed), up path to the root — Guttman's AdjustTree and
// CondenseTree in one pass. At each level the node is rewritten, or
// split when it overflows, or dropped when it emptied; then its parent's
// entry for it is refreshed (rect and count) with a split sibling
// appended after it, or removed with the dropped child. Above a split
// root the tree grows a level; a root that emptied leaves the tree
// empty; an internal root left with one entry is shrunk away, repeatedly.
func (m *mutation) carry(path []step, node *NodeData, shifted bool) error {
	var sib *NodeData
	for {
		switch {
		case len(node.Entries) == 0:
			m.drop(node)
		case len(node.Entries) > m.t.sh.cfgFanout:
			sib = m.split(node)
		default:
			m.rewrite(node, shifted)
		}
		if len(path) == 0 {
			break
		}
		up := path[len(path)-1]
		path = path[:len(path)-1]
		if shifted = len(node.Entries) == 0; shifted {
			up.node.Entries = slices.Delete(up.node.Entries, up.entry, up.entry+1)
		} else {
			up.node.Entries[up.entry] = entryOf(node)
			if sib != nil {
				up.node.Entries = append(up.node.Entries, entryOf(sib))
				sib = nil
			}
		}
		node = up.node
	}
	switch {
	case sib != nil:
		m.rootID = m.newNode(false, []NodeEntry{entryOf(node), entryOf(sib)}).ID
		m.height++
		return nil
	case len(node.Entries) == 0:
		m.rootID, m.height = -1, 0
		return nil
	}
	for !node.Leaf && len(node.Entries) == 1 {
		m.drop(node)
		m.rootID = node.Entries[0].Child
		m.height--
		var err error
		if node, err = m.readNode(m.rootID); err != nil {
			return err
		}
	}
	return nil
}

// entryOf is the entry a parent holds for node: its MBR, id and object
// count.
func entryOf(node *NodeData) NodeEntry {
	return NodeEntry{Rect: node.MBR(), Child: node.ID, Count: node.Count}
}

// split divides an overflowing node's entries (quadratic-split seeds,
// greedy assignment): the node keeps the first group, and a new sibling,
// which it returns, takes the second. Both halves are composed whole.
func (m *mutation) split(node *NodeData) *NodeData {
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

	node.Entries = groupA
	m.rewrite(node, true)
	return m.newNode(node.Leaf, groupB)
}

// settle sets w.inv to the posting record w's entries need, settling its
// rewritten children first: the one place a mutation composes or splices
// a record. A node with no base record is composed whole by composeInv;
// any other keeps its base record with each changed entry spliced — in an
// internal node every rewritten child's aggregate, in a leaf every newly
// inserted object's weights. Other entries are where the base record has
// them, as no entry before them was removed.
func (m *mutation) settle(w *workNode) error {
	if w.inv != nil {
		return nil
	}
	n := w.node
	if w.base == storage.InvalidPage {
		var aggs [][]invfile.EntryWeight
		if !n.Leaf {
			aggs = make([][]invfile.EntryWeight, len(n.Entries))
			for i, e := range n.Entries {
				var err error
				if aggs[i], err = m.aggregate(e.Child); err != nil {
					return err
				}
			}
		}
		w.inv = m.t.sh.composeInv(&m.composer, n.Leaf, n.Entries, m.objects, aggs)
		return nil
	}
	inv, err := m.t.readInvBytes(w.base)
	if err != nil {
		return err
	}
	for i, e := range n.Entries {
		var agg []invfile.EntryWeight
		if n.Leaf {
			if int(e.Child) < len(m.t.ds.Objects) {
				continue
			}
			doc := m.objects[e.Child].Doc
			agg = make([]invfile.EntryWeight, 0, doc.Unique())
			m.t.sh.eachWeight(doc, func(tm vocab.TermID, w float64) {
				agg = append(agg, invfile.EntryWeight{Term: tm, MaxW: w, MinW: w})
			})
		} else {
			if _, ok := m.dirty[e.Child]; !ok {
				continue
			}
			if agg, err = m.aggregate(e.Child); err != nil {
				return err
			}
		}
		if inv, err = invfile.ReplaceEntry(inv, int32(i), agg); err != nil {
			return err
		}
	}
	w.inv = inv
	return nil
}

// aggregate is the subtree aggregate of node id, which its parent's entry
// stores, ascending by term (invfile.Aggregate): read off the settled
// working record of a node this mutation rewrote, and otherwise off the
// stored one. A term's max weight is the posting maximum over entries; it
// is "covered" (min weight > 0) only when every entry carries a
// positive-minimum posting for it.
func (m *mutation) aggregate(id int32) ([]invfile.EntryWeight, error) {
	if w, ok := m.dirty[id]; ok {
		if err := m.settle(w); err != nil {
			return nil, err
		}
		return invfile.Aggregate(w.inv, len(w.node.Entries))
	}
	node, err := m.readNode(id)
	if err != nil {
		return nil, err
	}
	inv, err := m.t.readInvBytes(node.InvID)
	if err != nil {
		return nil, err
	}
	return invfile.Aggregate(inv, len(node.Entries))
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
