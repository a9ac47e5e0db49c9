package maxbrstknn

import (
	"fmt"

	"repro/internal/persist"
	"repro/internal/textrel"
)

// DefaultDecodedCacheBytes is the byte budget of the decoded-object cache
// when Options/LoadOptions leave DecodedCacheBytes zero (64 MiB).
const DefaultDecodedCacheBytes int64 = 64 << 20

// LoadOptions configures Load. A loaded index reads its records from the
// index file with pread, under the OS page cache, through one cache of its
// own: the decoded-object cache.
type LoadOptions struct {
	// CacheCapacity is accepted and ignored. It sized a record buffer pool
	// in front of the index file, which the decoded cache made redundant.
	CacheCapacity int
	// DecodedCacheBytes budgets the decoded-object cache above the index
	// file: tree nodes and posting records' term directories, read once,
	// are shared across traversals and concurrent requests. A cached
	// directory keeps no copy of its record; it reads only the posting
	// runs a query wants from the file. Zero selects
	// DefaultDecodedCacheBytes; a negative value disables the cache, so
	// every node visit and inverted-file load is a physical read — the
	// cold-serving setting the paper's Section 8 accounting models.
	DecodedCacheBytes int64
}

func (o LoadOptions) decodedCacheBytes() int64 {
	return resolveDecodedCacheBytes(o.DecodedCacheBytes)
}

// resolveDecodedCacheBytes maps the shared knob convention — zero means
// the default budget, negative means disabled — for Options and
// LoadOptions alike.
func resolveDecodedCacheBytes(v int64) int64 {
	if v == 0 {
		return DefaultDecodedCacheBytes
	}
	if v < 0 {
		return 0
	}
	return v
}

// Save writes the index to a single page-aligned file at path: a
// crc-checked versioned header, the serialized tree nodes and inverted
// files (preserving every record's page address), and the dataset with
// its vocabulary and build options. Load reconstructs an index that
// answers every query byte-identically to this one.
//
// Objects added with AddObject are included; deleted objects are
// recorded and stay deleted after Load. A shard index (see ShardBuilder)
// cannot be saved: its global id map is not part of the file format.
//
// Save serializes one consistent snapshot: it holds the writer mutex — so
// it sees the index either before or after any concurrent mutation, never
// mid-mutation — while concurrent queries proceed unblocked on their own
// pinned snapshots.
func (ix *Index) Save(path string) error {
	if ix.gids != nil {
		return fmt.Errorf("save: %w", errShardImmutable)
	}
	ix.writerMu.Lock()
	defer ix.writerMu.Unlock()
	sn := ix.snap.Load()
	return persist.Save(path, &persist.Index{
		Measure:       ix.opts.Measure.kind(),
		Alpha:         ix.opts.Alpha,
		ExplicitAlpha: ix.opts.ExplicitAlpha,
		Lambda:        ix.opts.lambda(),
		Fanout:        ix.opts.fanout(),
		DS:            sn.tree.Dataset(),
		Tree:          sn.tree,
		Deleted:       sn.deletedIDs(),
	})
}

// Load opens an index saved with Save, serving queries from the index
// file through a decoded cache of DefaultDecodedCacheBytes. Close the
// returned index to release the file.
func Load(path string) (*Index, error) {
	return LoadWithOptions(path, LoadOptions{})
}

// LoadWithOptions is Load with an explicit cache configuration.
func LoadWithOptions(path string, o LoadOptions) (*Index, error) {
	pix, err := persist.Load(path, o.decodedCacheBytes())
	if err != nil {
		return nil, err
	}
	measure, err := measureFromKind(pix.Measure)
	if err != nil {
		pix.Close()
		return nil, err
	}
	opts := Options{
		Measure:        measure,
		Alpha:          pix.Alpha,
		ExplicitAlpha:  pix.ExplicitAlpha,
		Lambda:         pix.Lambda,
		ExplicitLambda: true,
		Fanout:         pix.Fanout,
		// Carry the caller's decoded-cache setting into the loaded
		// index's options, so the index Compact builds from it honors
		// an explicit disable exactly as one built in memory does.
		DecodedCacheBytes: o.DecodedCacheBytes,
	}
	live := len(pix.DS.Objects) - len(pix.Deleted)
	return newIndex(opts, pix.Tree.Model(), pix.Tree, deletedBitmap(pix.Deleted), live, pix), nil
}

// Close releases the index file backing a loaded index. It is a no-op
// for indexes built in memory.
func (ix *Index) Close() error {
	if ix.closer == nil {
		return nil
	}
	return ix.closer.Close()
}

// ReadStats reports the physical reads the index's storage backend served
// — records fetched from the index file and the pages they span. An
// in-memory index reports zeros; for a loaded index the page count is the
// real-I/O figure to hold next to SimulatedIO.
func (ix *Index) ReadStats() (records, pages int64) {
	s := ix.snap.Load().tree.Backend().ReadStats()
	return s.Records, s.Pages
}

// CacheStats reports the index's decoded-object cache (decoded tree nodes
// and posting directories, shared across traversals and concurrent
// queries). Counters are zero when it is not configured.
type CacheStats struct {
	// BufferHits and BufferMisses always read zero: they counted the
	// record buffer pool loaded indexes no longer have.
	BufferHits, BufferMisses int64
	// DecodedHits, DecodedMisses and DecodedEvictions count decoded-cache
	// lookups and LRU evictions.
	DecodedHits, DecodedMisses, DecodedEvictions int64
	// DecodedEntries and DecodedBytes report current residency —
	// DecodedBytes is the approximate resident size of all cached decoded
	// objects, accounted per entry, and DecodedCapBytes the configured
	// byte budget it is kept under.
	DecodedEntries                int
	DecodedBytes, DecodedCapBytes int64
}

// CacheStats reports the decoded cache's effectiveness and residency
// (zeros when it is not configured).
func (ix *Index) CacheStats() CacheStats {
	s := CacheStats{}
	d := ix.snap.Load().tree.DecodedCacheStats()
	s.DecodedHits, s.DecodedMisses, s.DecodedEvictions = d.Hits, d.Misses, d.Evictions
	s.DecodedEntries, s.DecodedBytes, s.DecodedCapBytes = d.Entries, d.Bytes, d.CapBytes
	return s
}

func measureFromKind(k textrel.MeasureKind) (Measure, error) {
	switch k {
	case textrel.LM:
		return LanguageModel, nil
	case textrel.TFIDF:
		return TFIDF, nil
	case textrel.KO:
		return KeywordOverlap, nil
	case textrel.BM25:
		return BM25Measure, nil
	default:
		return 0, fmt.Errorf("maxbrstknn: saved index uses unknown measure %d", int(k))
	}
}
