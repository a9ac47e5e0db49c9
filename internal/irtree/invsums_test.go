package irtree

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/invfile"
	"repro/internal/storage"
	"repro/internal/textrel"
	"repro/internal/vocab"
)

// ReadInvFile loads the inverted file referenced by a node decoded whole,
// charging the simulated I/O of any load. It reads past the decoded cache,
// which holds the Dirs the sum path reads through, and decodes privately
// with decodeInv. No production path reads a whole file — every search
// sums through ReadInvSums and mutations splice records — so it lives
// here, as the whole-file view the tests check those paths against.
func (t *Tree) ReadInvFile(node *NodeData) (*decodedInv, error) {
	buf, err := t.readInvBytes(node.InvID)
	if err != nil {
		return nil, err
	}
	return decodeInv(buf)
}

// posting is one decoded posting: its entry and its weights.
type posting struct {
	Entry      int32
	MaxW, MinW float64
}

// decodedInv is a posting record decoded whole: its terms, ascending, and
// each term's postings in stored order.
type decodedInv struct {
	terms    []vocab.TermID
	postings map[vocab.TermID][]posting
}

// Terms returns the record's terms in stored order.
func (f *decodedInv) Terms() []vocab.TermID { return f.terms }

// Postings returns the postings of t (nil when absent).
func (f *decodedInv) Postings(t vocab.TermID) []posting { return f.postings[t] }

// decodeInv reads a posting record (the layout of invfile's package
// comment) independently of invfile's readers: the version gives the
// postings' entry-delta width and whether they carry a minimum weight, the
// term headers their counts, and every posting follows in term order. It
// requires the terms to ascend.
func decodeInv(buf []byte) (*decodedInv, error) {
	d := storage.NewDecoder(buf)
	v := d.Uvarint() - 5 // versions 5 to 10
	hasMin, w := v&1 == 1, 1<<(v>>1)
	n := d.Uvarint()
	if v > 5 || n > uint64(len(buf)) {
		return nil, fmt.Errorf("decodeInv: version %d, %d terms in %d bytes", v+5, n, len(buf))
	}
	terms, counts := make([]uint64, n), make([]uint64, n)
	for i := range terms {
		terms[i], counts[i] = d.Uvarint(), d.Uvarint()
	}
	f := &decodedInv{postings: make(map[vocab.TermID][]posting, n)}
	for i, tm := range terms {
		if i > 0 && tm <= terms[i-1] {
			return nil, fmt.Errorf("decodeInv: term %d stored after term %d", tm, terms[i-1])
		}
		entry := uint32(0)
		for range min(counts[i], uint64(d.Remaining())) {
			for j, b := range d.Bytes(w) {
				entry += uint32(b) << (8 * j)
			}
			p := posting{Entry: int32(entry), MaxW: d.Float64()}
			if hasMin {
				p.MinW = d.Float64()
			}
			f.postings[vocab.TermID(tm)] = append(f.postings[vocab.TermID(tm)], p)
		}
		f.terms = append(f.terms, vocab.TermID(tm))
	}
	if d.Err() != nil || d.Remaining() != 0 {
		return nil, fmt.Errorf("decodeInv: %v, %d bytes left", d.Err(), d.Remaining())
	}
	return f, nil
}

// TestReadInvBytesChargesBlocks pins the Section 8 rule for inverted-file
// loads at the one place it is applied: a load charges one simulated I/O
// per 4 kB block the record spans and no node visit, and a load of an
// address holding no record fails.
func TestReadInvBytesChargesBlocks(t *testing.T) {
	tree, _, _ := buildSmall(t, MIRTree, textrel.LM)
	var c invfile.Composer
	for e := range 10 {
		for tm := vocab.TermID(0); tm < 300; tm++ {
			c.Add(invfile.EntryWeight{Term: tm, MaxW: float64(e) * 0.1, MinW: 0.01})
		}
		c.EndEntry()
	}
	id := tree.sh.pager.WriteRecord(c.Compose(true, tree.Fanout()))
	blocks := tree.sh.pager.RecordPages(id)
	if blocks < 2 {
		t.Fatalf("test file should span ≥2 pages, got %d", blocks)
	}
	tree.IO().Reset()
	buf, err := tree.readInvBytes(id)
	if err != nil {
		t.Fatal(err)
	}
	if loaded, err := decodeInv(buf); err != nil || len(loaded.Terms()) != 300 {
		t.Fatalf("decoded %v terms, err %v", loaded, err)
	}
	if got := tree.IO().InvBlocks(); got != int64(blocks) {
		t.Errorf("charged %d blocks, want %d", got, blocks)
	}
	if tree.IO().NodeVisits() != 0 {
		t.Error("inverted-file load must not charge node visits")
	}
	if _, err := tree.readInvBytes(storage.PageID(tree.sh.pager.NumPages() + 7)); err == nil {
		t.Error("loading an unknown record should error")
	}
}

// MaxTextSums and MinTextSums are the subtree bounds checkSubtreeBounds
// holds every document to: a full decode, then one allocating pass per
// bound that starts each entry at the floors of the terms, F(terms), and
// adds, term by term in the ascending order of Model.Sum, the entry's
// stored increment for the term where it has a posting of it.

// MaxTextSums returns, for each entry of a node, an upper bound on
// Model.Sum(d, terms) over every document d in the entry's subtree: F(terms)
// plus the posting's maximum increment of each term the subtree contains.
// For leaf entries it is Model.Sum of the entry's document, bit for bit,
// because the leaf posting is the document's own increment.
func MaxTextSums(model *textrel.Model, inv *decodedInv, nEntries int, terms []vocab.TermID) []float64 {
	return textSums(model, inv, nEntries, terms, func(p posting) float64 { return p.MaxW })
}

// MinTextSums returns, for each entry of a node, a lower bound on
// Model.Sum(d, terms) over every document d in the entry's subtree:
// F(terms) plus the posting's minimum increment of each term, which is
// zero unless the term is in every document of the subtree. Only
// meaningful on a MIR-tree; on an IR-tree all stored minima are zero and
// the bound degrades to F(terms).
func MinTextSums(model *textrel.Model, inv *decodedInv, nEntries int, terms []vocab.TermID) []float64 {
	return textSums(model, inv, nEntries, terms, func(p posting) float64 { return p.MinW })
}

// textSums starts each entry at F(terms) and adds, per term in order, value
// of the entry's posting of the term where it has one.
func textSums(model *textrel.Model, inv *decodedInv, nEntries int, terms []vocab.TermID, value func(p posting) float64) []float64 {
	sums, floor := make([]float64, nEntries), model.Floor(terms)
	for i := range sums {
		sums[i] = floor
	}
	for _, tm := range terms {
		for _, p := range inv.Postings(tm) {
			sums[p.Entry] += value(p)
		}
	}
	return sums
}

// TestRestoreRejectsSmallFanout: the tree metadata is an unchecksummed
// data record, and a fanout below the R-tree minimum of 4 in it must fail
// the restore rather than bound a later mutation's nodes.
func TestRestoreRejectsSmallFanout(t *testing.T) {
	tree, ds, scorer := buildSmall(t, MIRTree, textrel.LM)
	meta := tree.EncodeMeta() // kind, then the fanout (16): one byte each
	if meta[1] != 16 {
		t.Fatalf("fanout byte %d, want 16", meta[1])
	}
	for _, fanout := range []byte{0, 1, 3} {
		bad := bytes.Clone(meta)
		bad[1] = fanout
		_, err := Restore(ds, scorer.Model, tree.Backend(), bad, 0)
		if err == nil || !strings.Contains(err.Error(), "corrupt tree metadata") {
			t.Fatalf("fanout %d: got %v, want a corrupt tree metadata error", fanout, err)
		}
	}
	bad := bytes.Clone(meta)
	bad[1] = 4
	got, err := Restore(ds, scorer.Model, tree.Backend(), bad, 0)
	if err != nil {
		t.Fatalf("fanout 4 refused: %v", err)
	}
	if got.Fanout() != 4 {
		t.Fatalf("restored fanout %d, want 4", got.Fanout())
	}
}

// TestRestoreRejectsCorruptRoot: the metadata's root field is the root's id
// plus one. A field the node table cannot hold (one that truncates to a
// negative id, or to the empty root), an empty root beside a nonzero height,
// a root at height zero and a root whose node slot holds no record must each
// fail the restore, not load a tree whose every query answers empty.
func TestRestoreRejectsCorruptRoot(t *testing.T) {
	tree, ds, scorer := buildSmall(t, MIRTree, textrel.LM)
	pages := make([]storage.PageID, tree.NumNodes())
	for id := range pages {
		pages[id] = tree.nodes.page(int32(id))
	}
	meta := func(height int, rootField uint64, pages []storage.PageID) []byte {
		buf := storage.AppendUvarint(nil, uint64(tree.Kind()))
		buf = storage.AppendUvarint(buf, uint64(tree.Fanout()))
		buf = storage.AppendUvarint(buf, uint64(height))
		buf = storage.AppendUvarint(buf, rootField)
		buf = storage.AppendUvarint(buf, uint64(len(pages)))
		for _, p := range pages {
			buf = storage.AppendUvarint(buf, uint64(p+1))
		}
		return buf
	}
	height, root := tree.Height(), uint64(tree.RootID()+1)
	if good := meta(height, root, pages); !bytes.Equal(good, tree.EncodeMeta()) {
		t.Fatal("the test's metadata encoding differs from EncodeMeta")
	} else if _, err := Restore(ds, scorer.Model, tree.Backend(), good, 0); err != nil {
		t.Fatalf("intact metadata refused: %v", err)
	}
	noRecord := append([]storage.PageID(nil), pages...)
	noRecord[tree.RootID()] = storage.InvalidPage
	for _, c := range []struct {
		name string
		meta []byte
	}{
		{"root field 2^31+1", meta(height, 1<<31+1, pages)},
		{"root field 2^32", meta(height, 1<<32, pages)},
		{"empty root at a nonzero height", meta(height, 0, pages)},
		{"root at height 0", meta(0, root, pages)},
		{"root slot without a record", meta(height, root, noRecord)},
	} {
		_, err := Restore(ds, scorer.Model, tree.Backend(), c.meta, 0)
		if err == nil || !strings.Contains(err.Error(), "corrupt tree metadata") {
			t.Errorf("%s: got %v, want a corrupt tree metadata error", c.name, err)
		}
	}
}
