// Package persist implements index persistence: the full built index —
// vocabulary, objects, relevance-model parameters, and the serialized
// IR-/MIR-tree with its inverted files — written through the pager into a
// single page-aligned index file (storage.FilePager) and read back over
// the disk backend, fronted by the LRU buffer pool so hot tree nodes and
// posting lists stay cached.
//
// The save path copies the tree's pager records verbatim: because both
// backends allocate record addresses contiguously, every node and
// inverted-file record keeps its PageID, so a loaded tree reads exactly
// the bytes the in-memory tree would — queries against a loaded index are
// byte-identical to the original, for every strategy and parallelism
// setting.
//
// On top of the copied records, Save appends one master record (the file
// header's root) holding the measure parameters, the vocabulary, the
// object collection, and the tree metadata. Load replays it: the
// vocabulary is rebuilt term by term (reproducing every TermID), corpus
// statistics and the model are recomputed deterministically from the
// objects, and the tree is restored over the file-backed pager.
package persist

import (
	"fmt"
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
// pager layout, this governs the index payload. Version 2 appends the
// deleted-object id list; version 3 indexes may contain one-page pad
// records where the in-memory pager had reclaimed pages. Versions 1 and 2
// are still accepted. Version 3 also introduced a trailing codec flag in
// the tree metadata for the since-removed packed posting layout: the flag
// is no longer written, absent or 0 loads as the flat layout every
// accepted file was written with, and a file flagged packed is refused by
// irtree.Restore with storage.ErrVersionMismatch.
const masterVersion = 3

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

	closer   *storage.FilePager // set for loaded indexes
	treeMeta []byte             // decoded master → Restore handoff
	frozenDS *dataset.Dataset   // build-time snapshot the model is rebuilt over
}

// Close releases the index file of a loaded index (no-op otherwise).
func (ix *Index) Close() error {
	if ix.closer == nil {
		return nil
	}
	return ix.closer.Close()
}

// NewModel builds the relevance model an Index describes, through the
// construction path the facade's Build also uses
// (textrel.NewModelWithLambda), so a loaded model is bit-for-bit the
// model the index was built with. ds must be the dataset state the model
// is (re)derived from: at build time the full dataset, at load time the
// frozen build-time snapshot (objects inserted after Build never
// contribute to model statistics).
func (ix *Index) NewModel(ds *dataset.Dataset) textrel.Model {
	return textrel.NewModelWithLambda(ix.Measure, ds, ix.Lambda)
}

// Save writes ix to a single index file at path: the tree's records are
// copied page-aligned and verbatim, then the master record is appended
// and installed as the file's root. The new file is written to a
// temporary sibling and renamed over path only after a successful
// Finalize, so a failed save never destroys an existing index.
func Save(path string, ix *Index) (err error) {
	tmp := path + ".tmp"
	fp, err := storage.CreateFilePager(tmp)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := fp.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			os.Remove(tmp)
		}
	}()

	src := ix.Tree.Backend()
	records := src.Records()
	// Re-saving a loaded index: its backend still lists the previous
	// file's master record, which the new save replaces. When it is the
	// trailing record (the usual read-mostly cycle — no inserts after
	// load), drop it so repeated load→save cycles keep the file stable.
	// A master in the middle (inserts appended records after it) must be
	// copied to preserve the addresses of everything behind it; it stays
	// as garbage until a compacting rebuild, like superseded node
	// records.
	if rp, ok := src.(interface{ Root() storage.PageID }); ok && len(records) > 0 {
		if root := rp.Root(); root != storage.InvalidPage && root == records[len(records)-1] {
			records = records[:len(records)-1]
		}
	}
	// The source may have holes where the pager reclaimed retired records
	// (the destination file pager is strictly append-only): pad each hole
	// with one-page empty records so every live record keeps its address.
	next := storage.PageID(0)
	for _, id := range records {
		data, rerr := src.ReadRecord(id)
		if rerr != nil {
			return fmt.Errorf("persist: reading record %d: %w", id, rerr)
		}
		for next < id && fp.Err() == nil {
			next = fp.WriteRecord(nil) + 1
		}
		if got := fp.WriteRecord(data); got != id && fp.Err() == nil {
			return fmt.Errorf("persist: record %d landed at page %d (non-contiguous source)", id, got)
		}
		pages := (len(data) + storage.PageSize - 1) / storage.PageSize
		if pages == 0 {
			pages = 1
		}
		next = id + storage.PageID(pages)
	}
	root := fp.WriteRecord(encodeMaster(ix))
	if werr := fp.Err(); werr != nil {
		return fmt.Errorf("persist: writing %s: %w", tmp, werr)
	}
	if err := fp.Finalize(root); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// Load opens the index file at path and reconstructs the index over the
// disk backend. cacheCapacity records are cached in an LRU buffer pool in
// front of the file (0 disables caching — every node visit and
// inverted-file load is a physical read, the cold-serving setting), and
// decodedCacheBytes budgets the decoded-object cache above the pool (0
// disables it, so every read decodes). The caller owns the returned
// index's file handle: Close it.
func Load(path string, cacheCapacity int, decodedCacheBytes int64) (*Index, error) {
	fp, err := storage.OpenFilePager(path)
	if err != nil {
		return nil, err
	}
	ix, err := loadFrom(fp)
	if err != nil {
		fp.Close()
		return nil, fmt.Errorf("persist: %s: %w", path, err)
	}
	ix.closer = fp

	// The model is rebuilt over the frozen build-time snapshot, exactly
	// as Build derived it — objects and terms added after Build must not
	// shift corpus statistics, or the loaded scores would drift from the
	// in-memory index (whose model was frozen at Build time).
	model := ix.NewModel(ix.frozenDS)
	tree, err := irtree.Restore(ix.DS, model, fp, ix.treeMeta, cacheCapacity, decodedCacheBytes)
	if err != nil {
		fp.Close()
		return nil, fmt.Errorf("persist: %s: %w", path, err)
	}
	ix.Tree = tree
	ix.treeMeta = nil
	ix.frozenDS = nil
	return ix, nil
}

func encodeMaster(ix *Index) []byte {
	buf := storage.AppendUvarint(nil, masterVersion)
	buf = storage.AppendUvarint(buf, uint64(ix.Measure))
	buf = storage.AppendFloat64(buf, ix.Alpha)
	buf = storage.AppendUvarint(buf, boolBit(ix.ExplicitAlpha))
	buf = storage.AppendFloat64(buf, ix.Lambda)
	buf = storage.AppendUvarint(buf, uint64(ix.Fanout))

	// The build-time freeze point: objects and vocabulary terms beyond it
	// were inserted after Build and are excluded from corpus statistics
	// (the standard frozen-statistics IR practice AddObject documents).
	// Both are implied by the dataset's stats, which Build sizes once and
	// inserts never touch.
	buf = storage.AppendUvarint(buf, uint64(ix.DS.Stats.NumDocs))
	buf = storage.AppendUvarint(buf, uint64(len(ix.DS.Stats.CollectionFreq)))

	v := ix.DS.Vocab
	buf = storage.AppendUvarint(buf, uint64(v.Size()))
	for t := 0; t < v.Size(); t++ {
		term := v.Term(vocab.TermID(t))
		buf = storage.AppendUvarint(buf, uint64(len(term)))
		buf = append(buf, term...)
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

	// Version 2: the deleted-id list (ascending, delta-encoded).
	buf = storage.AppendUvarint(buf, uint64(len(ix.Deleted)))
	prev := int32(0)
	for _, id := range ix.Deleted {
		buf = storage.AppendUvarint(buf, uint64(id-prev))
		prev = id
	}
	return buf
}

func loadFrom(fp *storage.FilePager) (*Index, error) {
	root := fp.Root()
	if root == storage.InvalidPage {
		return nil, fmt.Errorf("index file has no master record")
	}
	master, err := fp.ReadRecord(root)
	if err != nil {
		return nil, err
	}
	return decodeMaster(master)
}

func decodeMaster(buf []byte) (*Index, error) {
	d := storage.NewDecoder(buf)
	version := d.Uvarint()
	if d.Err() == nil && (version < 1 || version > masterVersion) {
		return nil, fmt.Errorf("%w: master record version %d, this build reads up to %d",
			storage.ErrVersionMismatch, version, masterVersion)
	}
	ix := &Index{
		Measure:       textrel.MeasureKind(d.Uvarint()),
		Alpha:         d.Float64(),
		ExplicitAlpha: d.Uvarint() == 1,
		Lambda:        d.Float64(),
		Fanout:        int(d.Uvarint()),
	}
	frozenObjects := d.Uvarint()
	frozenTerms := d.Uvarint()
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

	numObjects := d.Uvarint()
	if d.Err() == nil && numObjects > uint64(d.Remaining()) { // each object takes ≥17 bytes
		return nil, fmt.Errorf("corrupt master record: implausible object count %d", numObjects)
	}
	objects := make([]dataset.Object, 0, int(numObjects))
	for i := uint64(0); i < numObjects && d.Err() == nil; i++ {
		x, y := d.Float64(), d.Float64()
		unique := d.Uvarint()
		// Each unique term takes ≥2 encoded bytes (delta + frequency); a
		// larger claim is corruption and must be caught before it becomes
		// a gigantic map allocation hint.
		if d.Err() == nil && unique > uint64(d.Remaining())/2 {
			return nil, fmt.Errorf("corrupt master record: object %d claims %d unique terms in %d remaining bytes", i, unique, d.Remaining())
		}
		tf := make(map[vocab.TermID]int32, unique)
		prev := vocab.TermID(0)
		for j := uint64(0); j < unique && d.Err() == nil; j++ {
			prev += vocab.TermID(d.Uvarint())
			if prev < 0 || int(prev) >= v.Size() {
				return nil, fmt.Errorf("corrupt master record: object %d references term %d outside vocabulary of %d", i, prev, v.Size())
			}
			tf[prev] = int32(d.Uvarint())
		}
		objects = append(objects, dataset.Object{
			ID:  int32(i),
			Loc: geo.Point{X: x, Y: y},
			Doc: vocab.NewDoc(tf),
		})
	}

	metaLen := d.Uvarint()
	meta := d.Bytes(int(metaLen))

	// Version 1 predates deletion support, so its deleted list is empty.
	if version >= 2 {
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
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("corrupt master record: %w", err)
	}
	if frozenObjects > numObjects || frozenTerms > numTerms {
		return nil, fmt.Errorf("corrupt master record: freeze point (%d objects, %d terms) beyond dataset (%d, %d)",
			frozenObjects, frozenTerms, numObjects, numTerms)
	}

	// Rebuild the build-time snapshot: a vocabulary of the first
	// frozenTerms terms and the first frozenObjects objects reproduce the
	// corpus statistics — and therefore every model array, sized by the
	// frozen vocabulary — exactly as Build computed them. The full
	// dataset keeps every object (the tree's leaves reference them) but
	// carries the frozen statistics and space, matching the in-memory
	// index where inserts never touch either.
	frozenVocab := vocab.New()
	for i := 0; i < int(frozenTerms); i++ {
		frozenVocab.Add(v.Term(vocab.TermID(i)))
	}
	for i, o := range objects[:frozenObjects] {
		if ts := o.Doc.Terms(); len(ts) > 0 && uint64(ts[len(ts)-1]) >= frozenTerms {
			return nil, fmt.Errorf("corrupt master record: build-time object %d references post-freeze term %d", i, ts[len(ts)-1])
		}
	}
	frozenDS := dataset.Build(objects[:frozenObjects], frozenVocab)
	ix.frozenDS = frozenDS
	ix.DS = &dataset.Dataset{
		Objects: objects,
		Vocab:   v,
		Stats:   frozenDS.Stats,
		Space:   frozenDS.Space,
	}
	ix.treeMeta = meta
	return ix, nil
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
