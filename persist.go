package maxbrstknn

import (
	"fmt"

	"repro/internal/persist"
	"repro/internal/storage"
	"repro/internal/textrel"
)

// DefaultLoadCacheCapacity is the LRU buffer-pool size (in records) a
// loaded index uses when LoadOptions leaves CacheCapacity zero: hot tree
// nodes and posting lists are served from memory, cold ones from disk.
const DefaultLoadCacheCapacity = 4096

// DefaultDecodedCacheBytes is the byte budget of the decoded-object cache
// when Options/LoadOptions leave DecodedCacheBytes zero (64 MiB).
const DefaultDecodedCacheBytes int64 = 64 << 20

// LoadOptions configures Load.
type LoadOptions struct {
	// CacheCapacity is the number of records the LRU buffer pool in front
	// of the index file holds. Zero selects DefaultLoadCacheCapacity; a
	// negative value disables caching entirely, so every node visit and
	// inverted-file load is a physical read — the cold-serving setting the
	// paper's Section 8 accounting models.
	CacheCapacity int
	// DecodedCacheBytes budgets the decoded-object cache above the buffer
	// pool: tree nodes and posting lists decoded once are shared across
	// traversals and concurrent requests. Zero selects
	// DefaultDecodedCacheBytes; a negative value disables the cache.
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
// recorded and stay deleted after Load. Save serializes one consistent
// snapshot: it holds the writer mutex — so it sees the index either
// before or after any concurrent mutation, never mid-mutation — while
// concurrent queries proceed unblocked on their own pinned snapshots.
func (ix *Index) Save(path string) error {
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
// file through an LRU buffer pool (DefaultLoadCacheCapacity records).
// Close the returned index to release the file.
func Load(path string) (*Index, error) {
	return LoadWithOptions(path, LoadOptions{})
}

// LoadWithOptions is Load with an explicit cache configuration.
func LoadWithOptions(path string, o LoadOptions) (*Index, error) {
	capacity := o.CacheCapacity
	if capacity == 0 {
		capacity = DefaultLoadCacheCapacity
	}
	if capacity < 0 {
		capacity = 0
	}
	pix, err := persist.Load(path, capacity, o.decodedCacheBytes())
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
	s := storage.BackendReadStats(ix.snap.Load().tree.Backend())
	return s.Records, s.Pages
}

// CacheStats reports the index's two cache levels: the byte-level buffer
// pool in front of the page store (loaded indexes) and the decoded-object
// cache above it (decoded tree nodes and posting lists, shared across
// traversals and concurrent queries). Counters are zero for levels that
// are not configured.
type CacheStats struct {
	// BufferHits and BufferMisses count buffer-pool lookups.
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

// CacheStats reports cache effectiveness and residency for both cache
// levels (zeros for unconfigured levels).
func (ix *Index) CacheStats() CacheStats {
	s := CacheStats{}
	tree := ix.snap.Load().tree
	s.BufferHits, s.BufferMisses = tree.CacheStats()
	d := tree.DecodedCacheStats()
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
