// Package irtree implements the IR-tree of Cong et al. [3] and the paper's
// MIR-tree extension (Section 5.1) over one code base: an R-tree in which
// every node carries an inverted file describing the term weights of the
// documents in each entry's subtree. The IR-tree stores the maximum weight
// per (term, entry); the MIR-tree additionally stores the minimum weight
// over the subtree intersection, enabling the lower bounds of Section 5.3.
//
// Nodes and inverted files are serialized into a 4 kB pager and read back
// through an accountable accessor: every node read charges one simulated
// I/O and every inverted-file load charges one I/O per block, exactly the
// Section 8 cost model.
package irtree

import (
	"fmt"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/invfile"
	"repro/internal/rtree"
	"repro/internal/storage"
	"repro/internal/textrel"
	"repro/internal/vocab"
)

// Kind selects the index variant.
type Kind int

const (
	// IRTree stores only maximum term weights per node (the baseline
	// index of Section 4).
	IRTree Kind = iota
	// MIRTree stores minimum and maximum weights (Section 5.1).
	MIRTree
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == MIRTree {
		return "MIR-tree"
	}
	return "IR-tree"
}

// Config controls index construction.
type Config struct {
	Kind   Kind
	Fanout int // maximum entries per node; 0 selects rtree.DefaultMaxEntries
	// DecodedCacheBytes enables the second cache level: a sharded,
	// byte-capped cache of decoded nodes and inverted files keyed by
	// record address, so repeated traversals skip varint decode entirely.
	// Hits charge no simulated I/O (the warm-serving setting, exactly
	// like buffer-pool hits); zero keeps every read a decode — the
	// Section 8 accounting setting the experiments run under.
	DecodedCacheBytes int64
}

// shared is the state every snapshot of one index has in common: the
// append-only record store (records are never rewritten, so all epochs
// read through the same backend), the relevance model frozen at Build
// time, the caches, and the retirement ledger. One shared core is born at
// Build/Restore and threaded through every successor snapshot.
type shared struct {
	kind  Kind
	model textrel.Model

	pager   storage.Backend
	io      *storage.IOCounter
	cache   *storage.BufferPool   // nil unless Restore was given a capacity
	decoded *storage.DecodedCache // nil when DecodedCacheBytes == 0

	cfgFanout int

	// Retirement ledger: records superseded by published mutations. Their
	// decoded-cache entries are evicted at publish and these counters
	// report the accumulated garbage. When the backend supports
	// reclamation (the in-memory pager), retired sets are additionally
	// queued on pending and freed by ReclaimRetired once no pinned
	// snapshot can still read them; otherwise they wait for Save/Compact.
	retiredRecords atomic.Int64
	retiredPages   atomic.Int64

	// pins tracks snapshot epochs currently held by readers; its floor is
	// the oldest epoch a new reader may still pin.
	pins *storage.EpochPins
	// reclaim is the backend's page-reuse hook, nil when the backend is
	// append-only (FilePager).
	reclaim storage.Reclaimer
	// pending holds retired record sets not yet reclaimable, ascending by
	// epoch. Writer-owned (guarded by the facade's writer mutex).
	pending []pendingRetire
}

// pendingRetire is one published mutation's retired records: they become
// reclaimable once every pin below epoch is gone.
type pendingRetire struct {
	epoch uint64
	ids   []storage.PageID
}

// Tree is one immutable snapshot of a disk-resident IR-tree or MIR-tree
// over a dataset's objects. A snapshot is safe for any number of
// concurrent readers and is never modified after publication: WithInsert,
// WithDelete and WithReplace return a successor snapshot sharing the
// backend, caches and untouched node-table chunks with this one, leaving
// every existing reader's view intact. Mutators require external
// single-writer serialization (the facade's writer mutex).
type Tree struct {
	sh *shared
	ds *dataset.Dataset

	nodes    nodeTable // node id → serialized node record
	rootID   int32
	height   int
	numNodes int
	epoch    uint64 // publication counter: Build/Restore is 0, +1 per mutation
}

// nodeAgg is the per-term aggregate of one subtree used during bottom-up
// construction: the max and min weight over the subtree's documents, and
// whether the term occurs in every document (the subtree "intersection").
type nodeAgg map[vocab.TermID]aggEntry

type aggEntry struct {
	maxW    float64
	minW    float64
	covered bool // term present in every document of the subtree
}

// Build constructs the index over ds with the given relevance model. The
// model provides the document term weights stored in the inverted files.
func Build(ds *dataset.Dataset, model textrel.Model, cfg Config) *Tree {
	fanout := cfg.Fanout
	if fanout == 0 {
		fanout = rtree.DefaultMaxEntries
	}
	items := make([]rtree.Item, len(ds.Objects))
	for i, o := range ds.Objects {
		items[i] = rtree.Item{Ref: o.ID, Rect: geo.RectFromPoint(o.Loc)}
	}
	rt := rtree.BulkLoad(items, fanout)

	sh := &shared{
		kind:      cfg.Kind,
		model:     model,
		pager:     storage.NewPager(),
		io:        &storage.IOCounter{},
		cfgFanout: fanout,
		pins:      storage.NewEpochPins(),
	}
	sh.reclaim, _ = sh.pager.(storage.Reclaimer)
	sh.decoded = storage.NewDecodedCache(cfg.DecodedCacheBytes, 0)
	t := &Tree{
		sh:       sh,
		ds:       ds,
		nodes:    newNodeTable(rt.NumNodes()),
		rootID:   rt.RootID(),
		height:   rt.Height(),
		numNodes: rt.NumNodes(),
	}
	if rt.RootID() != rtree.NoNode {
		t.buildNode(rt, rt.RootID())
	}
	return t
}

// buildNode serializes the subtree rooted at id bottom-up and returns its
// aggregate and object count.
func (t *Tree) buildNode(rt *rtree.Tree, id int32) (nodeAgg, int32) {
	n := rt.Node(id)
	inv := invfile.New()
	entries := make([]NodeEntry, len(n.Entries))
	agg := make(nodeAgg)
	entryCovered := make([]nodeAgg, len(n.Entries))
	total := int32(0)

	for i, e := range n.Entries {
		var childAgg nodeAgg
		var childCount int32
		if n.Leaf {
			doc := t.ds.Objects[e.Child].Doc
			childAgg = make(nodeAgg, doc.Unique())
			doc.ForEach(func(tm vocab.TermID, _ int32) {
				w := t.sh.model.Weight(doc, tm)
				childAgg[tm] = aggEntry{maxW: w, minW: w, covered: true}
			})
			childCount = 1
		} else {
			childAgg, childCount = t.buildNode(rt, e.Child)
		}
		entries[i] = NodeEntry{Rect: e.Rect, Child: e.Child, Count: childCount}
		total += childCount
		entryCovered[i] = childAgg
		for tm, a := range childAgg {
			inv.Add(tm, invfile.Posting{Entry: int32(i), MaxW: a.maxW, MinW: a.minW})
		}
	}

	// Merge the entry aggregates into this node's subtree aggregate.
	for _, childAgg := range entryCovered {
		for tm, a := range childAgg {
			cur, seen := agg[tm]
			if !seen {
				agg[tm] = a
				continue
			}
			if a.maxW > cur.maxW {
				cur.maxW = a.maxW
			}
			if a.minW < cur.minW {
				cur.minW = a.minW
			}
			cur.covered = cur.covered && a.covered
			agg[tm] = cur
		}
	}
	// A term missing from any entry is not in the subtree intersection.
	for tm, a := range agg {
		for _, childAgg := range entryCovered {
			if ca, ok := childAgg[tm]; !ok || !ca.covered {
				a.covered = false
				a.minW = 0
				break
			}
		}
		agg[tm] = a
	}

	invID := t.sh.pager.WriteRecord(inv.Encode(t.sh.kind == MIRTree))
	t.nodes.setRaw(id, t.sh.pager.WriteRecord(encodeNode(n.Leaf, entries, invID)))
	return agg, total
}

// Kind returns the index variant.
func (t *Tree) Kind() Kind { return t.sh.kind }

// Dataset returns the indexed dataset.
func (t *Tree) Dataset() *dataset.Dataset { return t.ds }

// Model returns the relevance model whose weights are stored in the index.
func (t *Tree) Model() textrel.Model { return t.sh.model }

// IO returns the simulated I/O counter charged by node and inverted-file
// reads.
func (t *Tree) IO() *storage.IOCounter { return t.sh.io }

// RootID returns the root node id, or rtree.NoNode when the tree is empty.
func (t *Tree) RootID() int32 { return t.rootID }

// Height returns the number of tree levels.
func (t *Tree) Height() int { return t.height }

// NumNodes returns the number of allocated node slots. After deletes
// this may exceed the number of live nodes: dead ids keep their slot (as
// InvalidPage) so node ids stay stable across snapshots.
func (t *Tree) NumNodes() int { return t.numNodes }

// Epoch returns the snapshot's publication counter: 0 for a freshly
// built or restored tree, incremented once per published mutation.
func (t *Tree) Epoch() uint64 { return t.epoch }

// RetiredStats reports the records (and the pages they span) superseded
// by published mutations and not yet reclaimed — a gauge, not a running
// total: ReclaimRetired subtracts what it frees, so it reads zero whenever
// no pinned reader holds reclamation back. On an append-only backend
// nothing is freed and the garbage waits for Save/Compact. Safe to call
// concurrently with the writer.
func (t *Tree) RetiredStats() (records, pages int64) {
	return t.sh.retiredRecords.Load(), t.sh.retiredPages.Load()
}

// DiskPages returns the total pages occupied by nodes and inverted files.
func (t *Tree) DiskPages() int { return t.sh.pager.NumPages() }

// Backend returns the record store holding the serialized nodes and
// inverted files — the handle index persistence copies records from.
func (t *Tree) Backend() storage.Backend { return t.sh.pager }

// ReadNode fetches and decodes the node with the given id, charging one
// simulated node-visit I/O (the Section 8 rule). With a warm buffer pool
// configured, pool hits charge nothing; with a decoded cache configured,
// hits skip both the charge and the decode, returning the shared
// immutable *NodeData (callers must not modify it — mutations use private
// uncached reads for exactly that reason).
func (t *Tree) ReadNode(id int32) (*NodeData, error) {
	page := t.nodes.page(id)
	if page == storage.InvalidPage {
		return nil, fmt.Errorf("irtree: unknown node %d", id)
	}
	if v, ok := t.sh.decoded.Get(page); ok {
		return v.(*NodeData), nil
	}
	node, err := t.decodeNodeAt(id, page)
	if err != nil {
		return nil, err
	}
	t.sh.decoded.Put(page, node, node.memBytes())
	return node, nil
}

// decodeNodeAt reads and decodes the node record at page, charging one
// simulated node-visit I/O on a buffer-pool miss. Mutations call it with
// their private page table; readers through ReadNode.
func (t *Tree) decodeNodeAt(id int32, page storage.PageID) (*NodeData, error) {
	if t.sh.cache != nil {
		buf, hit, err := t.sh.cache.Read(page)
		if err != nil {
			return nil, err
		}
		if !hit {
			t.sh.io.NodeVisit()
		}
		return decodeNode(id, buf)
	}
	t.sh.io.NodeVisit()
	buf, err := t.sh.pager.ReadRecord(page)
	if err != nil {
		return nil, err
	}
	return decodeNode(id, buf)
}

// readInvBytes fetches the raw encoded inverted file at id, applying the
// simulated-I/O charging rule shared by every load path: one I/O per 4 kB
// block, with buffer-pool hits charging nothing.
func (t *Tree) readInvBytes(id storage.PageID) ([]byte, error) {
	if t.sh.cache != nil {
		buf, hit, err := t.sh.cache.Read(id)
		if err != nil {
			return nil, err
		}
		if !hit {
			t.sh.io.InvFileLoad(t.sh.pager.RecordPages(id))
		}
		return buf, nil
	}
	t.sh.io.InvFileLoad(t.sh.pager.RecordPages(id))
	return t.sh.pager.ReadRecord(id)
}

// ReadInvSums loads the inverted file referenced by a node and computes
// the per-entry bound sums for the given (ascending) term sets in one
// fused, term-filtered pass (see invfile.SumsInto for the definition) —
// the one way a search reads postings, shared by the joint traversal and
// the single-user TopK, and never materializing posting lists for the
// node's whole subtree vocabulary when the file cannot be cached. The
// simulated I/O charge is one per 4 kB block, as for any load of the file.
// The returned slices alias scratch and stay valid only until its next use.
//
// On a decoded-cache hit the sums are computed over the cached flat file
// via binary-search term lookup — no bytes touched, no allocations. On a
// miss the file is decoded and cached only when it can fit the cache's
// shard budget; otherwise (no cache configured — the paper-figure cold
// accounting — or a file too large to ever be cached) the fused byte-wise
// scan decodes only the wanted terms, so such nodes never pay a futile
// full decode per visit.
func (t *Tree) ReadInvSums(node *NodeData, maxTerms, minTerms []vocab.TermID, scratch *invfile.SumScratch) (maxSums, minSums []float64, err error) {
	floorOf := t.sh.model.FloorWeight
	if v, ok := t.sh.decoded.Get(node.InvID); ok {
		return v.(*invfile.File).SumsInto(len(node.Entries), maxTerms, minTerms, floorOf, scratch)
	}
	buf, err := t.readInvBytes(node.InvID)
	if err != nil {
		return nil, nil, err
	}
	if !t.sh.decoded.FitsBudget(invfile.MaxDecodedBytes(buf)) {
		return invfile.DecodeSumsInto(buf, len(node.Entries), maxTerms, minTerms, floorOf, scratch)
	}
	f, err := invfile.Decode(buf)
	if err != nil {
		return nil, nil, err
	}
	t.sh.decoded.Put(node.InvID, f, f.MemBytes())
	return f.SumsInto(len(node.Entries), maxTerms, minTerms, floorOf, scratch)
}

// CacheStats returns buffer-pool hits and misses (zeros when cold).
func (t *Tree) CacheStats() (hits, misses int64) {
	if t.sh.cache == nil {
		return 0, 0
	}
	return t.sh.cache.Stats()
}

// DecodedCacheStats returns the decoded-object cache counters (zeros when
// no decoded cache is configured).
func (t *Tree) DecodedCacheStats() storage.DecodedCacheStats {
	return t.sh.decoded.Stats()
}

// TryPin registers a reader on this snapshot's epoch, keeping the records
// it references safe from reclamation until Unpin. It fails when the
// reclamation floor has already passed the epoch — the facade then simply
// reloads the latest published snapshot and retries, which terminates
// because the floor never passes the newest publication.
func (t *Tree) TryPin() bool { return t.sh.pins.TryPin(t.epoch) }

// Unpin releases a TryPin. Each successful TryPin must be matched by
// exactly one Unpin.
func (t *Tree) Unpin() { t.sh.pins.Unpin(t.epoch) }

// ReclaimRetired frees the pending retired record sets every possible
// reader is past: it advances the pin floor to the minimum of this
// snapshot's epoch and the oldest live pin, then returns the pages of all
// sets published at or below the floor to the backend for reuse. Call
// from the writer only (under the facade's writer mutex) and only after
// this snapshot has been published — advancing the floor to an
// unpublished epoch would starve new readers. No-op when the backend is
// append-only.
func (t *Tree) ReclaimRetired() {
	sh := t.sh
	if sh.reclaim == nil || len(sh.pending) == 0 {
		return
	}
	floor := sh.pins.AdvanceFloor(t.epoch)
	n := 0
	for ; n < len(sh.pending) && sh.pending[n].epoch <= floor; n++ {
		set := sh.pending[n]
		var pages int64
		for _, id := range set.ids {
			pages += int64(sh.pager.RecordPages(id))
			// Evict again at reclaim time: a reader pinned on an older
			// epoch may have re-inserted this record's decode after the
			// publish-time eviction. With the floor at or past the
			// retiring epoch no such reader remains, so the entry cannot
			// reappear — and the address is now free to be reused.
			sh.decoded.Delete(id)
		}
		sh.reclaim.Reclaim(set.ids)
		sh.retiredRecords.Add(-int64(len(set.ids)))
		sh.retiredPages.Add(-pages)
	}
	if n > 0 {
		sh.pending = append(sh.pending[:0], sh.pending[n:]...)
	}
}
