package irtree

import (
	"errors"
	"math"
	"testing"

	"repro/internal/invfile"
	"repro/internal/storage"
	"repro/internal/textrel"
	"repro/internal/vocab"
)

// ReadInvFile loads the inverted file referenced by a node, charging one
// simulated I/O per 4 kB block (pool and decoded-cache hits charge
// nothing). The returned file may be shared through the decoded cache and
// must be treated as immutable. No production path reads a whole file —
// every search sums through ReadInvSums and mutations decode privately —
// so it lives here, as the whole-file view the tests check those paths
// against.
func (t *Tree) ReadInvFile(node *NodeData) (*invfile.File, error) {
	if v, ok := t.sh.decoded.Get(node.InvID); ok {
		return v.(*invfile.File), nil
	}
	buf, err := t.readInvBytes(node.InvID)
	if err != nil {
		return nil, err
	}
	f, err := invfile.Decode(buf)
	if err != nil {
		return nil, err
	}
	t.sh.decoded.Put(node.InvID, f, f.MemBytes())
	return f, nil
}

// TestReadInvBytesChargesBlocks pins the Section 8 rule for inverted-file
// loads at the one place it is applied: a load charges one simulated I/O
// per 4 kB block the record spans and no node visit, and a load of an
// address holding no record fails.
func TestReadInvBytesChargesBlocks(t *testing.T) {
	tree, _, _ := buildSmall(t, MIRTree, textrel.LM)
	f := invfile.New()
	for tm := vocab.TermID(0); tm < 300; tm++ {
		for e := int32(0); e < 10; e++ {
			f.Add(tm, invfile.Posting{Entry: e, MaxW: float64(e) * 0.1, MinW: 0.01})
		}
	}
	id := tree.sh.pager.WriteRecord(f.Encode(true))
	blocks := tree.sh.pager.RecordPages(id)
	if blocks < 2 {
		t.Fatalf("test file should span ≥2 pages, got %d", blocks)
	}
	tree.IO().Reset()
	buf, err := tree.readInvBytes(id)
	if err != nil {
		t.Fatal(err)
	}
	if loaded, err := invfile.Decode(buf); err != nil || loaded.NumTerms() != 300 {
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

// MaxTextSums and MinTextSums are the reference the production sum paths
// (ReadInvSums over invfile.SumsInto / DecodeSumsInto) are tested against:
// a full decode, then one allocating pass per bound.

// MaxTextSums returns, for each entry of a node, an upper bound on
// Σ_{t∈terms} Weight(d,t) over every document d in the entry's subtree:
// the posting's maximum weight where the subtree contains the term, and
// the model's floor weight (LM smoothing) where it does not. For leaf
// entries the result is exact, because the leaf posting weight is the
// document's own weight.
func MaxTextSums(model textrel.Model, inv *invfile.File, nEntries int, terms []vocab.TermID) []float64 {
	sums := make([]float64, nEntries)
	floorSum := 0.0
	for _, tm := range terms {
		floorSum += model.FloorWeight(tm)
	}
	for i := range sums {
		sums[i] = floorSum
	}
	for _, tm := range terms {
		floor := model.FloorWeight(tm)
		for _, p := range inv.Postings(tm) {
			sums[p.Entry] += p.MaxW - floor
		}
	}
	return sums
}

// MinTextSums returns, for each entry of a node, a lower bound on
// Σ_{t∈terms} Weight(d,t) over every document d in the entry's subtree:
// the posting's minimum weight where positive (the term is in the subtree
// intersection), otherwise the floor. Only meaningful on a MIR-tree; on an
// IR-tree all stored minima are zero and the bound degrades to the floor.
func MinTextSums(model textrel.Model, inv *invfile.File, nEntries int, terms []vocab.TermID) []float64 {
	sums := make([]float64, nEntries)
	floorSum := 0.0
	for _, tm := range terms {
		floorSum += model.FloorWeight(tm)
	}
	for i := range sums {
		sums[i] = floorSum
	}
	for _, tm := range terms {
		floor := model.FloorWeight(tm)
		for _, p := range inv.Postings(tm) {
			if p.MinW > floor {
				sums[p.Entry] += p.MinW - floor
			}
		}
	}
	return sums
}

// TestReadInvSumsMatchesDecodedSums verifies ReadInvSums against the
// reference path (full decode + MaxTextSums / MinTextSums) on every node
// of both index kinds and several term sets, including terms absent from
// the corpus — with the decoded cache off (the streaming byte-wise scan)
// and on (decode-and-cache on the first visit, sums over the cached file
// after), the two surviving sum paths.
func TestReadInvSumsMatchesDecodedSums(t *testing.T) {
	termSets := [][]vocab.TermID{
		nil,
		{0, 1, 2},
		{3, 7, 50, 299},
		{299, 5000}, // 5000 is out of vocabulary
	}
	for _, kind := range []Kind{IRTree, MIRTree} {
		for _, measure := range []textrel.MeasureKind{textrel.LM, textrel.TFIDF} {
			for _, cacheBytes := range []int64{0, 8 << 20} {
				_, ds, scorer := buildSmall(t, kind, measure)
				tree := Build(ds, scorer.Model, Config{Kind: kind, Fanout: 16, DecodedCacheBytes: cacheBytes})
				var scratch invfile.SumScratch
				for _, maxTerms := range termSets {
					for _, minTerms := range termSets {
						var walk func(id int32)
						walk = func(id int32) {
							node, err := tree.ReadNode(id)
							if err != nil {
								t.Fatal(err)
							}
							// Sums first: with the cache on, the first term set
							// takes the miss branch, every later one the hit.
							gotMax, gotMin, err := tree.ReadInvSums(node, maxTerms, minTerms, &scratch)
							if err != nil {
								t.Fatal(err)
							}
							inv, err := tree.ReadInvFile(node)
							if err != nil {
								t.Fatal(err)
							}
							wantMax := MaxTextSums(tree.Model(), inv, len(node.Entries), maxTerms)
							wantMin := MinTextSums(tree.Model(), inv, len(node.Entries), minTerms)
							for i := range node.Entries {
								if math.Abs(gotMax[i]-wantMax[i]) > 1e-12 {
									t.Fatalf("%v/%v cache %d node %d entry %d: maxSum %v != %v (terms %v)",
										kind, measure, cacheBytes, id, i, gotMax[i], wantMax[i], maxTerms)
								}
								if math.Abs(gotMin[i]-wantMin[i]) > 1e-12 {
									t.Fatalf("%v/%v cache %d node %d entry %d: minSum %v != %v (terms %v)",
										kind, measure, cacheBytes, id, i, gotMin[i], wantMin[i], minTerms)
								}
							}
							if !node.Leaf {
								for _, e := range node.Entries {
									walk(e.Child)
								}
							}
						}
						walk(tree.RootID())
					}
				}
			}
		}
	}
}

// TestRestoreRejectsPackedFlag: tree metadata written while the packed
// posting codec existed carries a trailing codec flag. Absent or 0 is the
// flat layout and restores; non-zero marks an index this build cannot
// read, refused at load with the typed version error.
func TestRestoreRejectsPackedFlag(t *testing.T) {
	tree, ds, scorer := buildSmall(t, MIRTree, textrel.LM)
	meta := tree.EncodeMeta()
	meta = meta[:len(meta):len(meta)] // appends below must not share a backing array
	for _, flat := range [][]byte{meta, storage.AppendUvarint(meta, 0)} {
		if _, err := Restore(ds, scorer.Model, tree.Backend(), flat, 0, 0); err != nil {
			t.Fatalf("flat metadata (%d bytes) refused: %v", len(flat), err)
		}
	}
	_, err := Restore(ds, scorer.Model, tree.Backend(), storage.AppendUvarint(meta, 1), 0, 0)
	if !errors.Is(err, storage.ErrVersionMismatch) {
		t.Fatalf("packed-flagged metadata: got %v, want ErrVersionMismatch", err)
	}
}
