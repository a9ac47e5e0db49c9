package irtree

import (
	"fmt"
	"math"

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
// The record is sized first and written into one exactly sized buffer,
// which the record store keeps as it is.
func encodeNode(leaf bool, entries []NodeEntry, invID storage.PageID) []byte {
	total := int32(0)
	size := storage.UvarintLen(boolBit(leaf)) + storage.UvarintLen(uint64(len(entries))) + storage.UvarintLen(uint64(invID))
	for _, e := range entries {
		size += storage.UvarintLen(uint64(e.Child)) + storage.UvarintLen(uint64(e.Count)) + 32
		total += e.Count
	}
	size += storage.UvarintLen(uint64(total))
	buf := storage.AppendUvarint(make([]byte, 0, size), boolBit(leaf))
	buf = storage.AppendUvarint(buf, uint64(len(entries)))
	for _, e := range entries {
		buf = storage.AppendUvarint(buf, uint64(e.Child))
		buf = storage.AppendUvarint(buf, uint64(e.Count))
		buf = storage.AppendFloat64(buf, e.Rect.Min.X)
		buf = storage.AppendFloat64(buf, e.Rect.Min.Y)
		buf = storage.AppendFloat64(buf, e.Rect.Max.X)
		buf = storage.AppendFloat64(buf, e.Rect.Max.Y)
	}
	buf = storage.AppendUvarint(buf, uint64(total))
	buf = storage.AppendUvarint(buf, uint64(invID))
	return buf
}

// minEntryBytes is the smallest encoded node entry: one-byte child and
// count varints and four float64s.
const minEntryBytes = 34

// decodeNode parses a record produced by encodeNode. Node pages are not
// checksummed, so a corrupt record must fail here rather than size an
// allocation or reach a reader: the entry count is bounded by the bytes
// that could hold it, and only a record encodeNode could have written is
// accepted — a leaf flag of 0 or 1, child refs and counts within int32,
// the total equal to the sum of the counts, every varint in its shortest
// form and no trailing bytes — so a decoded node re-encodes to its record.
func decodeNode(id int32, buf []byte) (*NodeData, error) {
	d := storage.NewDecoder(buf)
	leaf := d.Uvarint()
	cnt := d.Uvarint()
	if d.Err() == nil && cnt > uint64(len(buf)/minEntryBytes) {
		return nil, fmt.Errorf("irtree: node %d: entry count %d exceeds %d-byte record", id, cnt, len(buf))
	}
	canonical := storage.UvarintLen(leaf) + storage.UvarintLen(cnt) // the bytes encodeNode would write
	entries := make([]NodeEntry, cnt)
	sum := uint64(0)
	for i := range entries {
		child, count := d.Uvarint(), d.Uvarint()
		if child > math.MaxInt32 || count > math.MaxInt32 {
			return nil, fmt.Errorf("irtree: node %d: entry %d: child %d or count %d overflows int32", id, i, child, count)
		}
		canonical += storage.UvarintLen(child) + storage.UvarintLen(count) + 32
		sum += count
		entries[i].Child = int32(child)
		entries[i].Count = int32(count)
		entries[i].Rect.Min.X = d.Float64()
		entries[i].Rect.Min.Y = d.Float64()
		entries[i].Rect.Max.X = d.Float64()
		entries[i].Rect.Max.Y = d.Float64()
	}
	total := d.Uvarint()
	invID := d.Uvarint()
	canonical += storage.UvarintLen(total) + storage.UvarintLen(invID)
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("irtree: node %d: %w", id, err)
	}
	switch {
	case leaf > 1:
		return nil, fmt.Errorf("irtree: node %d: leaf flag %d", id, leaf)
	case total != sum || total > math.MaxInt32:
		return nil, fmt.Errorf("irtree: node %d: subtree count %d, entries sum to %d", id, total, sum)
	case canonical != len(buf):
		return nil, fmt.Errorf("irtree: node %d: %d-byte record, %d bytes in shortest form", id, len(buf), canonical)
	}
	return &NodeData{ID: id, Leaf: leaf == 1, Entries: entries, Count: int32(total), InvID: storage.PageID(invID)}, nil
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
