package irtree

import (
	"fmt"

	"repro/internal/geo"
	"repro/internal/storage"
)

// NodeEntry is one decoded slot of a node: a child node (internal) or an
// object (leaf), its bounding rectangle, and the number of objects in its
// subtree (1 for leaf entries) — the cp.num annotation of Section 5.1.
type NodeEntry struct {
	Rect  geo.Rect
	Child int32
	Count int32
}

// NodeData is a decoded node record.
type NodeData struct {
	ID      int32
	Leaf    bool
	Entries []NodeEntry
	Count   int32 // objects in this node's subtree
	InvID   storage.PageID
}

// memBytes approximates the decoded node's resident size for the decoded
// cache's byte accounting: 40 bytes per entry (rect + child + count) plus
// the struct header.
func (n *NodeData) memBytes() int64 {
	return int64(len(n.Entries))*40 + 64
}

// MBR returns the bounding rectangle of all entries.
func (n *NodeData) MBR() geo.Rect {
	r := geo.EmptyRect()
	for _, e := range n.Entries {
		r = r.Union(e.Rect)
	}
	return r
}

// encodeNode serializes a node: leaf flag, entry count, per entry the
// child ref, subtree count and rectangle, then the total count and the
// inverted-file page id. Construction and incremental maintenance share it.
func encodeNode(leaf bool, entries []NodeEntry, invID storage.PageID) []byte {
	buf := storage.AppendUvarint(nil, boolBit(leaf))
	buf = storage.AppendUvarint(buf, uint64(len(entries)))
	total := int32(0)
	for _, e := range entries {
		buf = storage.AppendUvarint(buf, uint64(e.Child))
		buf = storage.AppendUvarint(buf, uint64(e.Count))
		buf = storage.AppendFloat64(buf, e.Rect.Min.X)
		buf = storage.AppendFloat64(buf, e.Rect.Min.Y)
		buf = storage.AppendFloat64(buf, e.Rect.Max.X)
		buf = storage.AppendFloat64(buf, e.Rect.Max.Y)
		total += e.Count
	}
	buf = storage.AppendUvarint(buf, uint64(total))
	buf = storage.AppendUvarint(buf, uint64(invID))
	return buf
}

// decodeNode parses a record produced by encodeNode.
func decodeNode(id int32, buf []byte) (*NodeData, error) {
	d := storage.NewDecoder(buf)
	leaf := d.Uvarint() == 1
	cnt := d.Uvarint()
	entries := make([]NodeEntry, cnt)
	for i := range entries {
		entries[i].Child = int32(d.Uvarint())
		entries[i].Count = int32(d.Uvarint())
		entries[i].Rect.Min.X = d.Float64()
		entries[i].Rect.Min.Y = d.Float64()
		entries[i].Rect.Max.X = d.Float64()
		entries[i].Rect.Max.Y = d.Float64()
	}
	total := int32(d.Uvarint())
	invID := storage.PageID(d.Uvarint())
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("irtree: node %d: %w", id, err)
	}
	return &NodeData{ID: id, Leaf: leaf, Entries: entries, Count: total, InvID: invID}, nil
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
