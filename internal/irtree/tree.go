// Package irtree implements the IR-tree of Cong et al. [3] and the paper's
// MIR-tree extension (Section 5.1) over one code base: an R-tree in which
// every node carries an inverted file describing the term weights of the
// documents in each entry's subtree. The IR-tree stores the maximum weight
// per (term, entry); the MIR-tree additionally stores the minimum weight
// over the subtree intersection, enabling the lower bounds of Section 5.3.
//
// Build and every mutation that rewrites a whole node compose its inverted
// file with one function, composeInv: its objects' exact weights in a leaf,
// each child's aggregate (invfile.Aggregate) above, merged by an
// invfile.Composer. A mutation that changes only some entries of a node
// splices them into its stored record (invfile.ReplaceEntry) instead.
//
// Nodes and inverted files are serialized into a 4 kB pager and read back
// through an accountable accessor: every node read charges one simulated
// I/O and every inverted-file load charges one I/O per block, exactly the
// Section 8 cost model.
package irtree

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/invfile"
	"repro/internal/parallel"
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

// minFanout is the smallest node capacity Restore accepts, the R-tree
// minimum the facade's options enforce for Build.
const minFanout = 4

// Config controls index construction.
type Config struct {
	Kind   Kind
	Fanout int // maximum entries per node; 0 selects rtree.DefaultMaxEntries
	// DecodedCacheBytes enables the cache above the record store: a
	// sharded, byte-capped cache of decoded nodes and of inverted files'
	// indexed directories (invfile.Dir) keyed by record address, so
	// repeated traversals skip the read, the decode and the directory
	// walk. Hits charge no simulated I/O (the warm-serving setting); zero
	// keeps every read a charged decode — the Section 8 accounting setting
	// the experiments run under.
	DecodedCacheBytes int64
}

// shared is the state every snapshot of one index has in common: the
// record store (a record is never rewritten while a snapshot can read it,
// so all epochs read through the same backend), the relevance model frozen
// at Build time, the caches, and the retirement ledger. One shared core is
// born at Build/Restore and threaded through every successor snapshot.
type shared struct {
	kind  Kind
	model *textrel.Model

	pager   storage.Backend
	io      *storage.IOCounter
	decoded *storage.DecodedCache // nil when DecodedCacheBytes == 0

	cfgFanout int

	// Retirement ledger: records superseded by published mutations. Their
	// decoded-cache entries are evicted at publish; the retired sets are
	// queued on pending and freed by ReclaimRetired once no pinned
	// snapshot can still read them. These counters report the garbage not
	// yet freed.
	retiredRecords atomic.Int64
	retiredPages   atomic.Int64

	// pins tracks snapshot epochs currently held by readers; its floor is
	// the oldest epoch a new reader may still pin.
	pins *storage.EpochPins
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
// concurrent readers and is never modified after publication: With — a
// delete, an insert or both as one update — returns a successor snapshot
// sharing the backend, caches and untouched node-table chunks with this
// one, leaving every existing reader's view intact. The successor holds
// new records for exactly the nodes the mutation rewrote, each settled
// and written once when it publishes (mutate.go). With requires external
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

// Build constructs the index over ds with the given relevance model. The
// model provides the document term weights stored in the inverted files,
// each composed by composeInv. The nodes are composed a level at a time
// from the leaves up, on GOMAXPROCS goroutines (composeLevels), and then
// written in post-order, each node right after its children, so every
// record and address is the same whatever the number of goroutines.
func Build(ds *dataset.Dataset, model *textrel.Model, cfg Config) *Tree {
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
		t.writeNode(rt, t.composeLevels(rt), rt.RootID())
	}
	return t
}

// builtNode is one node composed by Build: its entries, its posting
// record, and the record's aggregate and object count, which its parent's
// entry takes.
type builtNode struct {
	entries []NodeEntry
	inv     []byte
	agg     []invfile.EntryWeight
	count   int32
}

// composeLevels composes every node of rt, indexed by node id. It buckets
// the nodes by depth and composes the deepest level first, each level's
// nodes spread over GOMAXPROCS goroutines with a Composer each; a node
// reads its children's aggregates from the level composed before it and
// drops them once its own record holds them.
func (t *Tree) composeLevels(rt *rtree.Tree) []builtNode {
	levels := [][]int32{{rt.RootID()}}
	for {
		var next []int32
		for _, id := range levels[len(levels)-1] {
			if n := rt.Node(id); !n.Leaf {
				for _, e := range n.Entries {
					next = append(next, e.Child)
				}
			}
		}
		if len(next) == 0 {
			break
		}
		levels = append(levels, next)
	}
	built := make([]builtNode, rt.NumNodes())
	workers := runtime.GOMAXPROCS(0)
	composers := make([]invfile.Composer, workers)
	for d := len(levels) - 1; d >= 0; d-- {
		level := levels[d]
		parallel.ForNWorkers(len(level), workers, func(w, i int) {
			t.buildNode(rt, built, level[i], &composers[w])
		})
	}
	return built
}

// buildNode composes node id of rt into built[id] with c, its children
// already composed.
func (t *Tree) buildNode(rt *rtree.Tree, built []builtNode, id int32, c *invfile.Composer) {
	n, b := rt.Node(id), &built[id]
	b.entries = make([]NodeEntry, len(n.Entries))
	var aggs [][]invfile.EntryWeight // the children's, above the leaves
	if !n.Leaf {
		aggs = make([][]invfile.EntryWeight, len(n.Entries))
	}
	for i, e := range n.Entries {
		count := int32(1)
		if !n.Leaf {
			child := &built[e.Child]
			aggs[i], count = child.agg, child.count
			child.agg = nil
		}
		b.entries[i] = NodeEntry{Rect: e.Rect, Child: e.Child, Count: count}
		b.count += count
	}
	b.inv = t.sh.composeInv(c, n.Leaf, b.entries, t.ds.Objects, aggs)
	agg, err := invfile.Aggregate(b.inv, len(b.entries))
	if err != nil {
		panic(fmt.Sprintf("irtree: Build cannot read the posting record it encoded: %v", err))
	}
	b.agg = agg
}

// writeNode writes the subtree rooted at id in post-order — each node's
// posting record and then its node record, right after its children's —
// handing the composed records to the store.
func (t *Tree) writeNode(rt *rtree.Tree, built []builtNode, id int32) {
	n := rt.Node(id)
	if !n.Leaf {
		for _, e := range n.Entries {
			t.writeNode(rt, built, e.Child)
		}
	}
	b := &built[id]
	invID := t.sh.pager.WriteRecord(b.inv)
	t.nodes.setRaw(id, t.sh.pager.WriteRecord(encodeNode(n.Leaf, b.entries, invID)))
	*b = builtNode{}
}

// Kind returns the index variant.
func (t *Tree) Kind() Kind { return t.sh.kind }

// Fanout returns the maximum number of entries per node.
func (t *Tree) Fanout() int { return t.sh.cfgFanout }

// Dataset returns the indexed dataset.
func (t *Tree) Dataset() *dataset.Dataset { return t.ds }

// Model returns the relevance model whose weights are stored in the index.
func (t *Tree) Model() *textrel.Model { return t.sh.model }

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
// no pinned reader holds reclamation back. Safe to call concurrently with
// the writer.
func (t *Tree) RetiredStats() (records, pages int64) {
	return t.sh.retiredRecords.Load(), t.sh.retiredPages.Load()
}

// DiskPages returns the total pages occupied by nodes and inverted files.
func (t *Tree) DiskPages() int { return t.sh.pager.NumPages() }

// Backend returns the record store holding the serialized nodes and
// inverted files — the store index persistence writes to a file.
func (t *Tree) Backend() storage.Backend { return t.sh.pager }

// ReadNode fetches and decodes the node with the given id, charging one
// simulated node-visit I/O (the Section 8 rule). With a decoded cache
// configured, hits skip both the charge and the decode, returning the shared
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
// simulated node-visit I/O. Mutations call it with their private page
// table; readers through ReadNode.
func (t *Tree) decodeNodeAt(id int32, page storage.PageID) (*NodeData, error) {
	t.sh.io.NodeVisit()
	buf, err := t.sh.pager.ReadRecord(page)
	if err != nil {
		return nil, err
	}
	return decodeNode(id, buf)
}

// readInvBytes fetches the raw encoded inverted file at id, applying the
// simulated-I/O charging rule shared by every load path: one I/O per 4 kB
// block.
func (t *Tree) readInvBytes(id storage.PageID) ([]byte, error) {
	t.sh.io.InvFileLoad(t.sh.pager.RecordPages(id))
	return t.sh.pager.ReadRecord(id)
}

// ReadInvSums loads the inverted file referenced by a node and computes
// the per-entry bound sums for the given (ascending) term sets from the
// runs of those terms alone (see invfile.DecodeSumsInto) — the one way a
// search reads postings, shared by the joint traversal and the
// single-user TopK. The simulated I/O charge is one per 4 kB block, as for
// any load of the file. Each entry's sums start at the tree model's
// floors of the wanted terms (textrel.Model.Floor) and add the entry's
// stored increments. The returned slices alias scratch and stay valid
// only until its next use.
//
// The decoded cache holds the record's invfile.Dir, its directory indexed
// over the record and charged its arrays alone (invfile.DirBytes): a
// cached Dir never holds a private copy of its record. Over a
// memory-resident record it aliases the pager's bytes; over a
// file-resident one the miss reads the whole record once, sums it and
// detaches the Dir, which then reads only the runs a query wants
// (Backend.ReadRecordAt). A hit charges no simulated I/O, a miss one per
// 4 kB block, on a built index and a loaded one alike. A record that
// cannot fit, or any with no cache (the paper-figure accounting), is
// summed off its bytes.
func (t *Tree) ReadInvSums(node *NodeData, maxTerms, minTerms []vocab.TermID, scratch *invfile.SumScratch) (maxSums, minSums []float64, err error) {
	maxStart, minStart := t.sh.model.Floor(maxTerms), t.sh.model.Floor(minTerms)
	if v, ok := t.sh.decoded.Get(node.InvID); ok {
		return v.(*invfile.Dir).SumsInto(len(node.Entries), maxTerms, minTerms, maxStart, minStart, scratch)
	}
	buf, err := t.readInvBytes(node.InvID)
	if err != nil {
		return nil, nil, err
	}
	charge := invfile.DirBytes(buf)
	if !t.sh.decoded.FitsBudget(charge) {
		return invfile.DecodeSumsInto(buf, len(node.Entries), maxTerms, minTerms, maxStart, minStart, scratch)
	}
	d, err := invfile.OpenDir(buf)
	if err != nil {
		return nil, nil, err
	}
	if maxSums, minSums, err = d.SumsInto(len(node.Entries), maxTerms, minTerms, maxStart, minStart, scratch); err != nil {
		return nil, nil, err
	}
	if id, pager := node.InvID, t.sh.pager; !pager.Resident(id) {
		d.Detach(func(dst []byte, off int) ([]byte, error) { return pager.ReadRecordAt(id, dst, off) })
	}
	t.sh.decoded.Put(node.InvID, d, charge)
	return maxSums, minSums, nil
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
// unpublished epoch would starve new readers.
func (t *Tree) ReclaimRetired() {
	sh := t.sh
	if len(sh.pending) == 0 {
		return
	}
	floor := sh.pins.AdvanceFloor(t.epoch)
	n := 0
	for ; n < len(sh.pending) && sh.pending[n].epoch <= floor; n++ {
		set := sh.pending[n]
		var pages int64
		for _, id := range set.ids {
			pages += int64(sh.pager.RecordPages(id))
			// Evict from the decoded cache now, not only at publish: a
			// reader pinned on an older epoch may have re-inserted this
			// record after the publish-time eviction. With the floor at or
			// past the retiring epoch no such reader remains, so the entry
			// cannot reappear — and the address is now free to be reused
			// by a new record. This eviction is load-bearing: a cached
			// node and a detached Dir both name their record by address,
			// and a detached Dir left behind would read its runs out of
			// whatever record reuses the slot.
			sh.decoded.Delete(id)
		}
		sh.pager.Reclaim(set.ids)
		sh.retiredRecords.Add(-int64(len(set.ids)))
		sh.retiredPages.Add(-pages)
	}
	if n > 0 {
		sh.pending = append(sh.pending[:0], sh.pending[n:]...)
	}
}
