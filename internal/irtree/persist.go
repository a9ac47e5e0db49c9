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
// from metadata produced by EncodeMeta. The metadata is an unchecksummed
// data record, so the fields a later mutation trusts are range-checked.
// decodedCacheBytes configures a decoded-object cache exactly as
// Config.DecodedCacheBytes does (zero keeps every query cold). The model must be built over
// ds with the same measure the tree was built with; the restored tree
// starts with a fresh I/O counter.
func Restore(ds *dataset.Dataset, model *textrel.Model, backend storage.Backend, meta []byte, decodedCacheBytes int64) (*Tree, error) {
	d := storage.NewDecoder(meta)
	kind := Kind(d.Uvarint())
	fanout := int(d.Uvarint())
	height := int(d.Uvarint())
	rootField := d.Uvarint()
	numNodes := int(d.Uvarint())
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("irtree: corrupt tree metadata: %w", err)
	}
	if kind != IRTree && kind != MIRTree {
		return nil, fmt.Errorf("irtree: corrupt tree metadata: unknown kind %d", kind)
	}
	if fanout < minFanout {
		return nil, fmt.Errorf("irtree: corrupt tree metadata: fanout %d below the R-tree minimum of %d", fanout, minFanout)
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
	// The root field is the root's id plus one, 0 for an empty tree; it is
	// range-checked before the conversion, which would truncate it.
	if rootField > uint64(numNodes) {
		return nil, fmt.Errorf("irtree: corrupt tree metadata: root field %d with %d nodes", rootField, numNodes)
	}
	rootID := int32(rootField) - 1
	if (rootID < 0) != (height == 0) {
		return nil, fmt.Errorf("irtree: corrupt tree metadata: root %d at height %d", rootID, height)
	}
	if rootID >= 0 && nodes.page(rootID) == storage.InvalidPage {
		return nil, fmt.Errorf("irtree: corrupt tree metadata: root %d has no node record", rootID)
	}
	sh := &shared{
		kind:      kind,
		model:     model,
		pager:     backend,
		io:        &storage.IOCounter{},
		cfgFanout: fanout,
		pins:      storage.NewEpochPins(),
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
