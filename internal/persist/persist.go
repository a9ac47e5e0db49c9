// Package persist implements index persistence: the full built index —
// vocabulary, objects, relevance-model parameters, and the serialized
// IR-/MIR-tree with its inverted files — written as a single page-aligned
// index file (storage.WriteFile) and opened back as the file-resident
// records of a storage.Pager, read with pread on demand under the tree's
// decoded cache.
//
// The file holds every tree record at its own page address, so a loaded
// tree reads exactly the bytes the in-memory tree would — queries against
// a loaded index are byte-identical to the original, for every strategy
// and parallelism setting.
//
// After the tree's records, Save appends one master record (the file
// header's root) holding the measure parameters, the vocabulary, the
// corpus context, the object collection, and the tree metadata. The
// corpus context is what every score depends on and Build computed once:
// each build-time term's collection and document frequency and the
// model's corpus-wide maximum weight, the total term count, the document
// count and the object space. Load replays the record: the vocabulary is
// rebuilt term by term (reproducing every TermID), the model is made from
// the stored context (textrel.NewModelFrozen) without a pass over the
// objects, and the tree is restored over the opened pager.
package persist

import (
	"fmt"
	"math"
	"os"

	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/irtree"
	"repro/internal/storage"
	"repro/internal/textrel"
	"repro/internal/vocab"
)

// masterVersion is the encoding version of the master record, separate
// from the file-level storage.FormatVersion: the file format governs the
// pager layout, this governs the index payload, its posting records
// included. Version 6 stores the Language Model's postings and corpus
// maxima as increments without the smoothing floor (textrel); Load refuses
// any other version with storage.ErrVersionMismatch, so an older index
// fails at load, never at a first query, and is rebuilt from its data. Its
// predecessors added the deleted-object id list (2), one-page empty
// records where the pager had reclaimed pages (3), posting records that
// put the term directory first and every posting at one stride (4,
// invfile), and the corpus context in place of a freeze point over the
// objects (5).
const masterVersion = 6

// Index is the persistable state of one built index: the measure
// parameters the facade's Options carry, the dataset, and the object
// tree. Tree.Backend() must hold every record Tree references (always
// true for trees built or restored by this codebase).
type Index struct {
	Measure       textrel.MeasureKind
	Alpha         float64
	ExplicitAlpha bool
	Lambda        float64 // Jelinek–Mercer λ; used when Measure == LM
	Fanout        int

	DS   *dataset.Dataset
	Tree *irtree.Tree

	// Deleted lists the dead object ids (ascending): slots still present
	// in DS.Objects — the tree's id space is append-only — but no longer
	// reachable from the tree. Nil when nothing was deleted.
	Deleted []int32

	closer   *storage.Pager // set for loaded indexes
	treeMeta []byte         // decoded master → Restore handoff
	maxW     []float64      // decoded model maxima → NewModelFrozen handoff
}

// Close releases the index file of a loaded index (no-op otherwise).
func (ix *Index) Close() error {
	if ix.closer == nil {
		return nil
	}
	return ix.closer.Close()
}

// Save writes ix to a single index file at path: the tree's records at
// their page addresses, then the master record as the file's root. The
// new file is written to a temporary sibling and renamed over path only
// once it is complete and synced, so a failed save never destroys an
// existing index.
func Save(path string, ix *Index) error {
	tmp := path + ".tmp"
	err := storage.WriteFile(tmp, ix.Tree.Backend(), encodeMaster(ix))
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("persist: saving %s: %w", path, err)
	}
	return nil
}

// Load opens the index file at path and reconstructs the index over its
// records, which stay in the file and are read with pread on demand.
// decodedCacheBytes budgets the decoded-object cache above the file (0
// disables it — every node visit and inverted-file load is a physical
// read, the cold-serving setting). The caller owns the returned index's
// file handle: Close it.
func Load(path string, decodedCacheBytes int64) (*Index, error) {
	pager, root, err := storage.OpenPager(path)
	if err != nil {
		return nil, err
	}
	ix, err := restore(pager, root, decodedCacheBytes)
	if err != nil {
		pager.Close()
		return nil, fmt.Errorf("persist: %s: %w", path, err)
	}
	// Nothing references the master record once it is decoded: freeing it
	// lets writes reuse its pages, and lets the next Save write its
	// successor in its place, so load → save reproduces the file.
	pager.Reclaim([]storage.PageID{root})
	ix.closer = pager
	return ix, nil
}

// restore decodes the master record at root and restores the tree over
// pager.
func restore(pager *storage.Pager, root storage.PageID, decodedCacheBytes int64) (*Index, error) {
	if root == storage.InvalidPage {
		return nil, fmt.Errorf("index file has no master record")
	}
	master, err := pager.ReadRecord(root)
	if err != nil {
		return nil, err
	}
	ix, err := decodeMaster(master)
	if err != nil {
		return nil, err
	}
	// The model is made from the stored corpus context, as the index's
	// own was at Build: objects and terms added since never shift it.
	model, err := textrel.NewModelFrozen(ix.Measure, ix.DS.Stats, ix.Lambda, ix.maxW)
	if err != nil {
		return nil, err
	}
	ix.Tree, err = irtree.Restore(ix.DS, model, pager, ix.treeMeta, decodedCacheBytes)
	if err != nil {
		return nil, err
	}
	// The tree's own fanout bounds every node a later mutation writes; the
	// two unchecksummed copies must agree.
	if f := ix.Tree.Fanout(); f != ix.Fanout {
		return nil, fmt.Errorf("irtree: corrupt tree metadata: fanout %d, the master record's %d", f, ix.Fanout)
	}
	ix.treeMeta, ix.maxW = nil, nil
	return ix, nil
}

func encodeMaster(ix *Index) []byte {
	buf := storage.AppendUvarint(nil, masterVersion)
	buf = storage.AppendUvarint(buf, uint64(ix.Measure))
	buf = storage.AppendFloat64(buf, ix.Alpha)
	buf = storage.AppendUvarint(buf, boolBit(ix.ExplicitAlpha))
	buf = storage.AppendFloat64(buf, ix.Lambda)
	buf = storage.AppendUvarint(buf, uint64(ix.Fanout))

	v := ix.DS.Vocab
	buf = storage.AppendUvarint(buf, uint64(v.Size()))
	for t := 0; t < v.Size(); t++ {
		term := v.Term(vocab.TermID(t))
		buf = storage.AppendUvarint(buf, uint64(len(term)))
		buf = append(buf, term...)
	}

	// The corpus context: the corpus totals and the object space, then
	// each build-time term's statistics and the model's maximum weight.
	st, sp := ix.DS.Stats, ix.DS.Space
	buf = storage.AppendUvarint(buf, uint64(st.TotalTerms))
	buf = storage.AppendUvarint(buf, uint64(st.NumDocs))
	for _, c := range []float64{sp.Min.X, sp.Min.Y, sp.Max.X, sp.Max.Y} {
		buf = storage.AppendFloat64(buf, c)
	}
	buf = storage.AppendUvarint(buf, uint64(len(st.CollectionFreq)))
	for t, w := range textrel.MaxWeights(ix.Tree.Model(), len(st.CollectionFreq)) {
		buf = storage.AppendUvarint(buf, uint64(st.CollectionFreq[t]))
		buf = storage.AppendUvarint(buf, uint64(st.DocFreq[t]))
		buf = storage.AppendFloat64(buf, w)
	}

	buf = storage.AppendUvarint(buf, uint64(len(ix.DS.Objects)))
	for _, o := range ix.DS.Objects {
		buf = storage.AppendFloat64(buf, o.Loc.X)
		buf = storage.AppendFloat64(buf, o.Loc.Y)
		buf = storage.AppendUvarint(buf, uint64(o.Doc.Unique()))
		prev := vocab.TermID(0)
		o.Doc.ForEach(func(t vocab.TermID, f int32) {
			buf = storage.AppendUvarint(buf, uint64(t-prev)) // ascending: deltas
			prev = t
			buf = storage.AppendUvarint(buf, uint64(f))
		})
	}

	meta := ix.Tree.EncodeMeta()
	buf = storage.AppendUvarint(buf, uint64(len(meta)))
	buf = append(buf, meta...)

	// The deleted-id list (ascending, delta-encoded).
	buf = storage.AppendUvarint(buf, uint64(len(ix.Deleted)))
	prev := int32(0)
	for _, id := range ix.Deleted {
		buf = storage.AppendUvarint(buf, uint64(id-prev))
		prev = id
	}
	return buf
}

func decodeMaster(buf []byte) (*Index, error) {
	d := storage.NewDecoder(buf)
	version := d.Uvarint()
	if d.Err() == nil && version != masterVersion {
		return nil, fmt.Errorf("%w: master record version %d, this build reads version %d; rebuild it",
			storage.ErrVersionMismatch, version, masterVersion)
	}
	ix := &Index{
		Measure:       textrel.MeasureKind(d.Uvarint()),
		Alpha:         d.Float64(),
		ExplicitAlpha: d.Uvarint() == 1,
		Lambda:        d.Float64(),
		Fanout:        int(d.Uvarint()),
	}
	// Data pages carry no checksum (only the header and directory do), so
	// decoded parameters must be validated here: a bit-flipped lambda or
	// measure would otherwise reach the model constructors' panics.
	if err := d.Err(); err == nil {
		switch {
		case ix.Measure != textrel.LM && ix.Measure != textrel.TFIDF &&
			ix.Measure != textrel.KO && ix.Measure != textrel.BM25:
			return nil, fmt.Errorf("corrupt master record: unknown measure %d", int(ix.Measure))
		case !(ix.Alpha >= 0 && ix.Alpha <= 1):
			return nil, fmt.Errorf("corrupt master record: alpha %v outside [0,1]", ix.Alpha)
		case !(ix.Lambda >= 0 && ix.Lambda <= 1):
			return nil, fmt.Errorf("corrupt master record: lambda %v outside [0,1]", ix.Lambda)
		case ix.Fanout < 4:
			return nil, fmt.Errorf("corrupt master record: fanout %d below the R-tree minimum of 4", ix.Fanout)
		}
	}

	v := vocab.New()
	numTerms := d.Uvarint()
	for i := uint64(0); i < numTerms && d.Err() == nil; i++ {
		term := d.Bytes(int(d.Uvarint()))
		if v.Add(string(term)) != vocab.TermID(i) {
			return nil, fmt.Errorf("corrupt master record: duplicate vocabulary term %q", term)
		}
	}

	ds := &dataset.Dataset{Vocab: v}
	maxW, err := decodeCorpus(d, ds)
	if err != nil {
		return nil, err
	}

	numObjects := d.Uvarint()
	if d.Err() == nil && numObjects > uint64(d.Remaining()) { // each object takes ≥17 bytes
		return nil, fmt.Errorf("corrupt master record: implausible object count %d", numObjects)
	}
	objects := make([]dataset.Object, 0, int(numObjects))
	for i := uint64(0); i < numObjects && d.Err() == nil; i++ {
		x, y := d.Float64(), d.Float64()
		// Format 6 predates the coordinate range: refuse a point outside it.
		if p := (geo.Point{X: x, Y: y}); d.Err() == nil && !p.Valid() {
			return nil, fmt.Errorf("master record: object %d at (%g, %g): coordinates must be finite and at most %g in magnitude", i, x, y, geo.MaxCoord)
		}
		unique := d.Uvarint()
		// Each unique term takes ≥2 encoded bytes (delta + frequency); a
		// larger claim is corruption and must be caught before it becomes
		// a gigantic allocation.
		if d.Err() == nil && unique > uint64(d.Remaining())/2 {
			return nil, fmt.Errorf("corrupt master record: object %d claims %d unique terms in %d remaining bytes", i, unique, d.Remaining())
		}
		// The terms are stored ascending, as deltas from the previous one
		// (the first from zero), each with its frequency: Save writes no
		// repeated term (a zero delta after the first) and no frequency
		// outside 1..MaxInt32, so either is corruption, not a term to drop
		// or to overwrite.
		terms, freqs := make([]vocab.TermID, unique), make([]int32, unique)
		term := uint64(0)
		for j := uint64(0); j < unique; j++ {
			delta, freq := d.Uvarint(), d.Uvarint()
			if d.Err() != nil {
				break
			}
			switch size := uint64(v.Size()); {
			case j > 0 && delta == 0:
				return nil, fmt.Errorf("corrupt master record: object %d repeats term %d", i, term)
			case delta >= size || term+delta >= size:
				return nil, fmt.Errorf("corrupt master record: object %d references a term outside vocabulary of %d (delta %d after term %d)", i, size, delta, term)
			case freq == 0 || freq > math.MaxInt32:
				return nil, fmt.Errorf("corrupt master record: object %d gives term %d frequency %d outside 1..%d", i, term+delta, freq, math.MaxInt32)
			}
			term += delta
			terms[j], freqs[j] = vocab.TermID(term), int32(freq)
		}
		objects = append(objects, dataset.Object{
			ID:  int32(i),
			Loc: geo.Point{X: x, Y: y},
			Doc: vocab.DocFromSorted(terms, freqs),
		})
	}

	metaLen := d.Uvarint()
	meta := d.Bytes(int(metaLen))

	numDeleted := d.Uvarint()
	if d.Err() == nil && numDeleted > numObjects {
		return nil, fmt.Errorf("corrupt master record: %d deleted ids for %d objects", numDeleted, numObjects)
	}
	prev := uint64(0)
	for i := uint64(0); i < numDeleted && d.Err() == nil; i++ {
		delta := d.Uvarint()
		if i > 0 && delta == 0 {
			return nil, fmt.Errorf("corrupt master record: duplicate deleted id %d", prev)
		}
		id := prev + delta
		if id >= numObjects {
			return nil, fmt.Errorf("corrupt master record: deleted id %d beyond %d objects", id, numObjects)
		}
		ix.Deleted = append(ix.Deleted, int32(id))
		prev = id
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("corrupt master record: %w", err)
	}
	ds.Objects = objects
	ix.DS, ix.maxW, ix.treeMeta = ds, maxW, meta
	return ix, nil
}

// decodeCorpus decodes the corpus context into ds's statistics and space
// and returns the model maxima. It validates what keeps every model weight
// finite and non-negative and the distance normalization sound: an
// ordered space, a context over a prefix of the vocabulary, term
// frequencies within the corpus totals, and finite maxima ≥ 0. The
// document count may exceed the objects held: a compacted index holds
// fewer than its corpus.
func decodeCorpus(d *storage.Decoder, ds *dataset.Dataset) ([]float64, error) {
	total, numDocs := d.Uvarint(), d.Uvarint()
	ds.Space.Min.X, ds.Space.Min.Y, ds.Space.Max.X, ds.Space.Max.Y = d.Float64(), d.Float64(), d.Float64(), d.Float64()
	n := d.Uvarint()
	if d.Err() == nil {
		switch {
		case total > math.MaxInt64 || numDocs > math.MaxInt32:
			return nil, fmt.Errorf("corrupt master record: %d term occurrences in %d documents", total, numDocs)
		case !(ds.Space.Min.X <= ds.Space.Max.X && ds.Space.Min.Y <= ds.Space.Max.Y):
			return nil, fmt.Errorf("corrupt master record: unordered object space %v", ds.Space)
		case n > uint64(ds.Vocab.Size()) || n > uint64(d.Remaining())/10: // each term takes ≥10 bytes
			return nil, fmt.Errorf("corrupt master record: corpus context of %d terms for a vocabulary of %d", n, ds.Vocab.Size())
		}
	}
	ds.Stats = dataset.CorpusStats{
		CollectionFreq: make([]int64, n), DocFreq: make([]int32, n),
		TotalTerms: int64(total), NumDocs: int32(numDocs),
	}
	maxW := make([]float64, n)
	for t := range maxW {
		cf, df, w := d.Uvarint(), d.Uvarint(), d.Float64()
		if cf > total || df > numDocs || !(w >= 0 && w <= math.MaxFloat64) {
			return nil, fmt.Errorf("corrupt master record: term %d has frequencies (%d, %d) and maximum weight %v in a corpus of (%d, %d)",
				t, cf, df, w, total, numDocs)
		}
		ds.Stats.CollectionFreq[t], ds.Stats.DocFreq[t], maxW[t] = int64(cf), int32(df), w
	}
	return maxW, nil
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
