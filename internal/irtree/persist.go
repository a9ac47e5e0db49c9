package irtree

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/storage"
	"repro/internal/textrel"
)

// EncodeMeta serializes the structural metadata a Tree needs beyond its
// pager records: variant, fanout, height, root, and the node-id → record
// mapping. Together with the backend contents and the dataset this fully
// determines the tree — Restore(EncodeMeta()) answers every query
// byte-identically to the original.
func (t *Tree) EncodeMeta() []byte {
	buf := storage.AppendUvarint(nil, uint64(t.sh.kind))
	buf = storage.AppendUvarint(buf, uint64(t.sh.cfgFanout))
	buf = storage.AppendUvarint(buf, uint64(t.height))
	buf = storage.AppendUvarint(buf, uint64(t.rootID+1)) // rtree.NoNode (-1) → 0
	buf = storage.AppendUvarint(buf, uint64(t.nodes.n))
	for id := int32(0); int(id) < t.nodes.n; id++ {
		buf = storage.AppendUvarint(buf, uint64(t.nodes.page(id)+1)) // storage.InvalidPage (-1) → 0
	}
	return buf
}

// Restore reconstructs a Tree over a backend already holding its records,
// from metadata produced by EncodeMeta. cacheCapacity front-loads an LRU
// buffer pool over the backend, whose hits charge no simulated I/O (zero
// keeps every query cold), and decodedCacheBytes a decoded-object cache
// exactly as Config.DecodedCacheBytes does. The model must be built over
// ds with the same measure the tree was built with; the restored tree
// starts with a fresh I/O counter.
func Restore(ds *dataset.Dataset, model textrel.Model, backend storage.Backend, meta []byte, cacheCapacity int, decodedCacheBytes int64) (*Tree, error) {
	d := storage.NewDecoder(meta)
	kind := Kind(d.Uvarint())
	fanout := int(d.Uvarint())
	height := int(d.Uvarint())
	rootID := int32(d.Uvarint()) - 1
	numNodes := int(d.Uvarint())
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("irtree: corrupt tree metadata: %w", err)
	}
	if kind != IRTree && kind != MIRTree {
		return nil, fmt.Errorf("irtree: corrupt tree metadata: unknown kind %d", kind)
	}
	if numNodes < 0 || uint64(numNodes) > uint64(len(meta)) { // each entry takes ≥1 byte
		return nil, fmt.Errorf("irtree: corrupt tree metadata: implausible node count %d", numNodes)
	}
	totalPages := backend.NumPages()
	nodes := newNodeTable(numNodes)
	for i := 0; i < numNodes; i++ {
		id := storage.PageID(d.Uvarint()) - 1
		if id >= storage.PageID(totalPages) {
			return nil, fmt.Errorf("irtree: corrupt tree metadata: node %d at page %d beyond %d stored pages", i, id, totalPages)
		}
		nodes.setRaw(int32(i), id)
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("irtree: corrupt tree metadata: %w", err)
	}
	if int(rootID) >= numNodes {
		return nil, fmt.Errorf("irtree: corrupt tree metadata: root %d with %d nodes", rootID, numNodes)
	}
	// Metadata written between PR 7 and the packed codec's removal carries
	// one trailing codec flag: 0 (flat) reads as before; non-zero marks an
	// index this build cannot answer from, refused here rather than at the
	// first inverted-file read of some later query.
	if d.Remaining() > 0 {
		flag := d.Uvarint()
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("irtree: corrupt tree metadata: %w", err)
		}
		if flag != 0 {
			return nil, fmt.Errorf("irtree: %w: index stores packed postings, which this build no longer reads; rebuild it", storage.ErrVersionMismatch)
		}
	}

	sh := &shared{
		kind:      kind,
		model:     model,
		pager:     backend,
		io:        &storage.IOCounter{},
		cfgFanout: fanout,
		pins:      storage.NewEpochPins(),
	}
	sh.reclaim, _ = sh.pager.(storage.Reclaimer)
	if cacheCapacity > 0 {
		sh.cache = storage.NewBufferPool(sh.pager, cacheCapacity)
	}
	sh.decoded = storage.NewDecodedCache(decodedCacheBytes, 0)
	return &Tree{
		sh:       sh,
		ds:       ds,
		nodes:    nodes,
		rootID:   rootID,
		height:   height,
		numNodes: numNodes,
	}, nil
}
