// Package maxbrstknn is an open-source reproduction of "Maximizing
// Bichromatic Reverse Spatial and Textual k Nearest Neighbor Queries"
// (Choudhury, Culpepper, Sellis, Cao — PVLDB 9(6), 2016).
//
// Given a set of objects (facilities, advertisements, businesses) and a
// set of users, each with a location and keywords, a MaxBRSTkNN query
// finds the location ℓ (from candidates L) and keyword set W' (at most ws
// keywords from candidates W) that maximize the number of users who would
// rank a new object placed at ℓ with text W' among their top-k most
// spatial-textually relevant objects.
//
// # Quick start
//
//	b := maxbrstknn.NewBuilder()
//	b.AddObject(1.0, 1.0, "sushi")
//	b.AddObject(4.0, 2.0, "noodles")
//	idx, _ := b.Build(maxbrstknn.Options{})
//
//	users := []maxbrstknn.UserSpec{
//		{X: 0.5, Y: 0.5, Keywords: []string{"sushi", "seafood"}},
//		{X: 3.0, Y: 2.0, Keywords: []string{"noodles"}},
//	}
//	res, _ := idx.MaxBRSTkNN(maxbrstknn.Request{
//		Users:       users,
//		Locations:   [][2]float64{{1.5, 1.0}, {3.5, 2.0}},
//		Keywords:    []string{"sushi", "seafood", "noodles"},
//		MaxKeywords: 1,
//		K:           1,
//	})
//	fmt.Println(res.Location, res.Keywords, res.UserIDs)
//
// The package wraps the internal reproduction: IR-tree / MIR-tree object
// indexes with simulated 4 kB-page I/O accounting, the joint top-k
// processing of Section 5, the exact and greedy candidate selection of
// Section 6, and the MIUR-tree user index of Section 7.
//
// # Parallelism
//
// Both query phases run on a bounded worker pool when a Request carries
// ParallelOptions: phase 1 partitions the users into spatially tight
// super-user groups whose traversals execute concurrently, and phase 2
// fans the candidate locations and exact keyword-combination scans out
// over the pool. Results are guaranteed byte-identical to the sequential
// pipeline — ties are broken by object ID everywhere — so Workers/Groups
// are purely performance knobs:
//
//	res, _ := idx.MaxBRSTkNN(maxbrstknn.Request{
//		// ... query as above ...
//		Parallel: maxbrstknn.ParallelOptions{Workers: runtime.GOMAXPROCS(0)},
//	})
//
// # Persistence
//
// A built index can be written to a single page-aligned file and served
// from it — no rebuild, byte-identical answers for every strategy and
// parallelism setting:
//
//	_ = idx.Save("index.mxbr")
//	loaded, _ := maxbrstknn.Load("index.mxbr")
//	defer loaded.Close()
//
// Loaded indexes read tree nodes and posting lists from the file on
// demand, under the decoded cache (see LoadOptions); Index.ReadStats
// reports the physical reads next to the simulated-I/O counter.
package maxbrstknn

import (
	"errors"
	"fmt"
	"io"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/irtree"
	"repro/internal/textrel"
	"repro/internal/vocab"
)

// Measure selects the text relevance model of Section 3.
type Measure int

// Available text relevance measures.
const (
	// LanguageModel is Jelinek–Mercer smoothed LM (the paper's default).
	LanguageModel Measure = iota
	// TFIDF weighs terms by term frequency × inverse document frequency.
	TFIDF
	// KeywordOverlap scores |u.d ∩ o.d| / |u.d|.
	KeywordOverlap
	// BM25Measure is Okapi BM25 — an extension beyond the paper's three
	// measures demonstrating its "any text-based relevance" claim.
	BM25Measure
)

func (m Measure) kind() textrel.MeasureKind {
	switch m {
	case LanguageModel:
		return textrel.LM
	case TFIDF:
		return textrel.TFIDF
	case KeywordOverlap:
		return textrel.KO
	case BM25Measure:
		return textrel.BM25
	default:
		// Options.Validate rejects out-of-range measures before any path
		// reaches here; mapping an unknown Measure to LM silently would
		// recreate the downgrade bug class.
		panic(fmt.Sprintf("maxbrstknn: unknown Measure %d", int(m)))
	}
}

// Options configures index construction.
type Options struct {
	// Measure is the text relevance model (default LanguageModel).
	Measure Measure
	// Alpha balances spatial vs textual relevance in Equation 1
	// (default 0.5). Zero means "use default"; pass ExplicitAlpha to force
	// a literal 0.
	Alpha float64
	// ExplicitAlpha forces Alpha to be used verbatim even when zero.
	ExplicitAlpha bool
	// Lambda is the Jelinek–Mercer smoothing weight of the LanguageModel
	// measure (default textrel.DefaultLambda = 0.4; ignored by the other
	// measures). Zero means "use default"; pass ExplicitLambda to force an
	// unsmoothed literal 0.
	Lambda float64
	// ExplicitLambda forces Lambda to be used verbatim even when zero.
	ExplicitLambda bool
	// Fanout is the R-tree node capacity (default 32, minimum 4).
	Fanout int
	// DecodedCacheBytes budgets the sharded decoded-object cache the
	// index keeps above its page store: decoded tree nodes and posting
	// records' indexed term directories are reused across traversals and
	// concurrent queries instead of being re-read per visit. Zero selects
	// DefaultDecodedCacheBytes; a negative value disables the cache (the
	// cold-accounting setting, where SimulatedIO charges every visit).
	// Purely a performance knob — results are byte-identical either way.
	DecodedCacheBytes int64
}

func (o Options) alpha() float64 {
	if o.Alpha == 0 && !o.ExplicitAlpha {
		return 0.5
	}
	return o.Alpha
}

func (o Options) lambda() float64 {
	if o.Lambda == 0 && !o.ExplicitLambda {
		return textrel.DefaultLambda
	}
	return o.Lambda
}

func (o Options) fanout() int {
	if o.Fanout == 0 {
		return 32
	}
	return o.Fanout
}

func (o Options) decodedCacheBytes() int64 {
	return resolveDecodedCacheBytes(o.DecodedCacheBytes)
}

// Validate reports the first invalid option. Build calls it, so parameter
// mistakes surface as errors at the facade rather than as panics from the
// internal packages.
func (o Options) Validate() error {
	switch o.Measure {
	case LanguageModel, TFIDF, KeywordOverlap, BM25Measure:
	default:
		return fmt.Errorf("maxbrstknn: unknown measure %d", int(o.Measure))
	}
	if a := o.alpha(); !(a >= 0 && a <= 1) {
		return fmt.Errorf("maxbrstknn: alpha must be in [0,1], got %v", a)
	}
	if l := o.lambda(); !(l >= 0 && l <= 1) {
		return fmt.Errorf("maxbrstknn: lambda must be in [0,1], got %v", l)
	}
	if o.Fanout != 0 && o.Fanout < 4 {
		return fmt.Errorf("maxbrstknn: fanout must be 0 (default) or at least 4, got %d", o.Fanout)
	}
	return nil
}

// newModel constructs the relevance model the options describe over a
// whole corpus: the statistics-derived part and a maxima scan of ds's
// objects. Every other index takes its model from one made here.
func (o Options) newModel(ds *dataset.Dataset) *textrel.Model {
	return textrel.NewModelWithLambda(o.Measure.kind(), ds, o.lambda())
}

// assemble ends every index build: it builds the MIR-tree over objects
// under one corpus context — build-time statistics, object space and
// model — and wraps it in an index. The index owns a private copy of
// terms (identical ids), so the source vocabulary can keep growing
// without racing the index's lock-free readers.
func (o Options) assemble(objects []dataset.Object, terms vocab.View, stats dataset.CorpusStats, space geo.Rect, model *textrel.Model) *Index {
	v := vocab.New()
	for id := vocab.TermID(0); int(id) < terms.Size(); id++ {
		v.Add(terms.Term(id))
	}
	ds := &dataset.Dataset{Objects: objects, Vocab: v, Stats: stats, Space: space}
	mir := irtree.Build(ds, model, irtree.Config{
		Kind:              irtree.MIRTree,
		Fanout:            o.fanout(),
		DecodedCacheBytes: o.decodedCacheBytes(),
	})
	return newIndex(o, model, mir, nil, 0, nil)
}

// Builder accumulates objects before index construction.
type Builder struct {
	vocab   *vocab.Vocabulary
	objects []dataset.Object
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{vocab: vocab.New()}
}

// AddObject registers one object and returns its id. Duplicate keywords
// raise the term's frequency, as repeated words in a review would.
func (b *Builder) AddObject(x, y float64, keywords ...string) int {
	id := int32(len(b.objects))
	terms := make([]vocab.TermID, len(keywords))
	for i, kw := range keywords {
		terms[i] = b.vocab.Add(kw)
	}
	b.objects = append(b.objects, dataset.Object{
		ID:  id,
		Loc: geo.Point{X: x, Y: y},
		Doc: vocab.DocFromTerms(terms),
	})
	return int(id)
}

// Len returns the number of objects added so far.
func (b *Builder) Len() int { return len(b.objects) }

// Build constructs the spatial-textual index. The Builder can keep adding
// objects afterwards, but they will not appear in this Index.
func (b *Builder) Build(opts Options) (*Index, error) {
	if len(b.objects) == 0 {
		return nil, fmt.Errorf("maxbrstknn: no objects added")
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	for _, o := range b.objects {
		if err := checkPoint(o.Loc.X, o.Loc.Y); err != nil {
			return nil, err
		}
	}
	objects := append([]dataset.Object(nil), b.objects...)
	// The corpus context is computed here, once: Compact, Save and Load
	// and shard builds carry it, never re-derive it.
	corpus := dataset.Build(objects, b.vocab)
	return opts.assemble(objects, b.vocab.View(), corpus.Stats, corpus.Space, opts.newModel(corpus)), nil
}

// newIndex assembles an Index around its first snapshot. deleted/live
// describe objects already dead in the tree (a loaded index); a nil
// bitmap means every object is live.
func newIndex(opts Options, model *textrel.Model, mir *irtree.Tree, deleted []uint64, live int, closer io.Closer) *Index {
	if deleted == nil {
		live = len(mir.Dataset().Objects)
	}
	ix := &Index{opts: opts, model: model, wvocab: mir.Dataset().Vocab, closer: closer}
	ix.snap.Store(&snapshot{tree: mir, vocab: ix.wvocab.View(), live: live, del: deleted})
	return ix
}

// Index is a spatial-textual object index that answers top-k and
// MaxBRSTkNN queries. The stored term weights depend only on the
// measure; the distance normalization (dmax of Equation 2) is derived per
// query so it covers the query's users and candidate locations.
//
// # Concurrency
//
// An Index is safe for concurrent use, and queries never block on
// writers. All reader-visible state lives in an immutable snapshot
// published through one atomic pointer: every operation (TopK,
// MaxBRSTkNN, NewSession, Save, the stats accessors) loads the pointer
// once and works against that frozen epoch — tree, vocabulary view,
// corpus statistics — without taking any lock. The mutating operations
// (AddObject, DeleteObject, UpdateObject) serialize against each other
// on a writer mutex, prepare a successor snapshot copy-on-write off to
// the side (modified tree nodes are written to fresh records, never
// rewritten in place), and install it with a single atomic swap. A query that
// started before the swap simply finishes on the epoch it pinned.
//
// The unit of consistency is one snapshot load: a one-shot query sees
// exactly one epoch end to end, and a Session pins the epoch it was
// created on for all of its runs (see the Session godoc). For answers
// that reflect a set of mutations, create the session (or run the
// one-shot query) after they complete.
type Index struct {
	opts  Options
	model *textrel.Model

	// snap is the atomically-published current snapshot. Readers Load it
	// exactly once per operation; writers Store a successor under
	// writerMu.
	snap atomic.Pointer[snapshot]

	// writerMu serializes the mutating operations (and Save, which walks
	// the live vocabulary the writer grows). Readers never touch it.
	writerMu sync.Mutex

	// wvocab is the writer's handle on the live vocabulary. Readers use
	// the fenced View captured in each snapshot instead.
	wvocab *vocab.Vocabulary

	// closer releases the index file backing a loaded index; nil for
	// in-memory indexes.
	closer io.Closer

	// gids maps local dense object ids to global ids (strictly ascending)
	// on an index a ShardBuilder built; nil on a whole index. Frozen shard
	// statistics and the map would both desynchronize under mutation, so
	// an index that has one is immutable.
	gids []int32
}

// snapshot is one immutable publication of the index: a tree epoch, the
// vocabulary view fenced at that epoch, and the live-object bookkeeping.
// Everything reachable from a snapshot is safe for concurrent readers
// and never mutated after publication.
type snapshot struct {
	tree  *irtree.Tree
	vocab vocab.View
	live  int      // objects present in the tree
	del   []uint64 // bitmap over object ids; nil when nothing was deleted
}

// isDeleted reports whether object id holds a dead dataset slot.
func (sn *snapshot) isDeleted(id int32) bool {
	w := int(id) >> 6
	return w < len(sn.del) && sn.del[w]>>(uint(id)&63)&1 == 1
}

// deletedIDs returns the dead object ids in ascending order (nil when
// nothing was deleted) — the persistence wire form of the bitmap.
func (sn *snapshot) deletedIDs() []int32 {
	var ids []int32
	for w, word := range sn.del {
		for word != 0 {
			ids = append(ids, int32(w<<6)+int32(bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return ids
}

// deletedBitmap rebuilds the bitmap form of an ascending deleted-id list
// (nil for an empty list).
func deletedBitmap(ids []int32) []uint64 {
	if len(ids) == 0 {
		return nil
	}
	bm := make([]uint64, int(ids[len(ids)-1])>>6+1)
	for _, id := range ids {
		bm[id>>6] |= 1 << (uint(id) & 63)
	}
	return bm
}

// withDeleted returns a copy of the deleted bitmap with id set.
func (sn *snapshot) withDeleted(id int32) []uint64 {
	w := int(id) >> 6
	n := len(sn.del)
	if w+1 > n {
		n = w + 1
	}
	nd := make([]uint64, n)
	copy(nd, sn.del)
	nd[w] |= 1 << (uint(id) & 63)
	return nd
}

// ErrNoSuchObject is returned (wrapped) by DeleteObject and UpdateObject
// for an id that was never assigned or is already deleted.
var ErrNoSuchObject = errors.New("maxbrstknn: no such object")

// ErrBadPoint is returned (wrapped) for a coordinate that is NaN, ±Inf or
// above geo.MaxCoord in magnitude, which no distance can hold.
var ErrBadPoint = fmt.Errorf("maxbrstknn: coordinates must be finite and at most %g in magnitude", geo.MaxCoord)

// checkPoint is every entry point's check of a point it is handed.
func checkPoint(x, y float64) error {
	if !(geo.Point{X: x, Y: y}).Valid() {
		return fmt.Errorf("%w: (%g, %g)", ErrBadPoint, x, y)
	}
	return nil
}

// acquire loads the current snapshot and pins its epoch so the records it
// references survive until the matching Unpin. TryPin only fails when the
// reclamation floor already passed the loaded epoch — which implies a
// newer snapshot has been published — so the retry loop always
// terminates.
func (ix *Index) acquire() *snapshot {
	for {
		sn := ix.snap.Load()
		if sn.tree.TryPin() {
			return sn
		}
	}
}

// scorerFor builds a scorer whose dmax covers the given extra rectangles.
func (ix *Index) scorerFor(sn *snapshot, extra ...geo.Rect) *textrel.Scorer {
	return &textrel.Scorer{Model: ix.model, Alpha: ix.opts.alpha(), DMax: sn.tree.Dataset().DMax(extra...)}
}

// NumObjects returns the number of live indexed objects (deleted objects
// keep their id but no longer count).
func (ix *Index) NumObjects() int {
	return ix.snap.Load().live
}

// Epoch returns the index's publication counter: 0 for a freshly built
// or loaded index, incremented once per published mutation (UpdateObject
// counts as one). It identifies the snapshot concurrent queries observe.
func (ix *Index) Epoch() uint64 {
	return ix.snap.Load().tree.Epoch()
}

// IngestStats reports the state of the ingestion machinery at the
// current snapshot.
type IngestStats struct {
	// Epoch is the snapshot's publication counter (see Index.Epoch).
	Epoch uint64
	// LiveObjects and TotalObjects count the objects in the tree and the
	// allocated ids (live + deleted slots).
	LiveObjects, TotalObjects int
	// RetiredRecords and RetiredPages count the store records (and the
	// 4 kB pages they span) superseded by published mutations and not yet
	// reclaimed — a gauge, not a running total. Retired records are
	// reclaimed once no open Session pins an older snapshot, on a built or
	// a loaded index alike, so both read zero when idle.
	RetiredRecords, RetiredPages int64
}

// IngestStats reports epoch, live/total objects and retired-record
// counters for the current snapshot.
func (ix *Index) IngestStats() IngestStats {
	sn := ix.snap.Load()
	records, pages := sn.tree.RetiredStats()
	return IngestStats{
		Epoch:          sn.tree.Epoch(),
		LiveObjects:    sn.live,
		TotalObjects:   len(sn.tree.Dataset().Objects),
		RetiredRecords: records,
		RetiredPages:   pages,
	}
}

// AddObject inserts one object into the live index (incremental
// maintenance, Section 5.1). Term weights use the corpus statistics
// frozen at Build time — the standard IR practice; rebuild periodically
// to refresh them (Compact keeps them). Returns the new object's id. A
// shard index (see ShardBuilder) rejects every mutation.
//
// The insert is prepared copy-on-write and published atomically:
// concurrent queries never block on it and observe the index either
// before or after the insert, never mid-split. The mutation is
// all-or-nothing — on error nothing is published and the vocabulary is
// rolled back, so a failed insert leaves no trace.
func (ix *Index) AddObject(x, y float64, keywords ...string) (int, error) {
	return ix.write(nil, &geo.Point{X: x, Y: y}, keywords)
}

// DeleteObject removes object id from the live index. The id is never
// reused — deleted objects keep a dead dataset slot so snapshots and
// saved files stay address-stable — and the deletion publishes as one
// atomic snapshot swap, invisible to in-flight queries. Returns
// ErrNoSuchObject (wrapped) for an unknown or already-deleted id.
func (ix *Index) DeleteObject(id int) error {
	_, err := ix.write(&id, nil, nil)
	return err
}

// UpdateObject replaces object id with a new location and keyword set,
// publishing the delete and the insert as one snapshot — no concurrent
// query can observe the object missing. The replacement gets a fresh id
// (returned); the old id becomes a dead slot. Returns ErrNoSuchObject
// (wrapped) for an unknown or already-deleted id; on any error nothing
// is published and the vocabulary is rolled back.
func (ix *Index) UpdateObject(id int, x, y float64, keywords ...string) (int, error) {
	return ix.write(&id, &geo.Point{X: x, Y: y}, keywords)
}

// write is the one writer body of AddObject, DeleteObject and
// UpdateObject. Under the writer mutex it deletes object *del when del is
// not nil, then inserts an object at *at with keywords when at is not
// nil, as one mutation (irtree.Tree.With); publishes the successor
// snapshot; and reclaims the records no pinned reader can still read. It
// returns the id an inserted object gets. On error nothing is published
// and the vocabulary is rolled back.
func (ix *Index) write(del *int, at *geo.Point, keywords []string) (int, error) {
	if ix.gids != nil {
		return 0, errShardImmutable
	}
	if at != nil {
		if err := checkPoint(at.X, at.Y); err != nil {
			return 0, err
		}
	}
	ix.writerMu.Lock()
	defer ix.writerMu.Unlock()
	sn := ix.snap.Load()
	id := len(sn.tree.Dataset().Objects)
	next := &snapshot{vocab: sn.vocab, live: sn.live, del: sn.del}
	gone := int32(-1)
	if del != nil {
		if *del < 0 || *del >= id || sn.isDeleted(int32(*del)) {
			return 0, fmt.Errorf("%w: %d", ErrNoSuchObject, *del)
		}
		gone = int32(*del)
		next.live, next.del = next.live-1, sn.withDeleted(gone)
	}
	var o *dataset.Object
	mark := ix.wvocab.Size()
	if at != nil {
		terms := make([]vocab.TermID, len(keywords))
		for i, kw := range keywords {
			terms[i] = ix.wvocab.Add(kw)
		}
		o = &dataset.Object{ID: int32(id), Loc: *at, Doc: vocab.DocFromTerms(terms)}
		next.live++
	}
	tree, err := sn.tree.With(gone, o)
	if err != nil {
		ix.wvocab.Truncate(mark)
		return 0, err
	}
	next.tree = tree
	if at != nil {
		next.vocab = ix.wvocab.View()
	}
	ix.snap.Store(next)
	// Reclaim only after the successor snapshot is published: advancing
	// the pin floor first would make acquire spin against its own writer.
	tree.ReclaimRetired()
	return id, nil
}

// Compact builds a fresh index over the current snapshot's live objects
// under the same corpus context — build-time statistics, space and
// relevance model, carried over as they are — so the result answers every
// query byte-identically to this index while shedding dead dataset slots
// and retired store records. Objects are densely reassigned ids in their
// original order (result object ids change when deletes happened). The
// returned index is fully independent: it has its own vocabulary copy
// and accepts its own writers, and compacts, saves and loads like any
// other. A shard index, which never holds deletions, rejects Compact.
func (ix *Index) Compact() (*Index, error) {
	if ix.gids != nil {
		return nil, fmt.Errorf("compact: %w", errShardImmutable)
	}
	sn := ix.snap.Load()
	ds := sn.tree.Dataset()
	live := make([]dataset.Object, 0, sn.live)
	for _, o := range ds.Objects {
		if sn.isDeleted(o.ID) {
			continue
		}
		o.ID = int32(len(live))
		live = append(live, o)
	}
	if len(live) == 0 {
		return nil, fmt.Errorf("maxbrstknn: cannot compact an empty index")
	}
	// Statistics and space refresh on a real rebuild, which would
	// legitimately move every weight — Compact's contract is answer
	// identity.
	return ix.opts.assemble(live, sn.vocab, ds.Stats, ds.Space, ix.model), nil
}

// SimulatedIO returns the cumulative simulated I/O count (Section 8 cost
// model: one per node visit plus one per 4 kB inverted-file block).
func (ix *Index) SimulatedIO() int64 { return ix.snap.Load().tree.IO().Total() }

// ResetIO zeroes the simulated I/O counter (a cold-query boundary).
func (ix *Index) ResetIO() { ix.snap.Load().tree.IO().Reset() }

// RankedObject is one result of a top-k query.
type RankedObject struct {
	ObjectID int
	Score    float64
}

// TopK returns the k most spatial-textually relevant objects for a user at
// (x, y) with the given preference keywords: exact scores (Equation 1),
// descending, ties by ascending object id. A shard index reports global
// object ids; its scores are globally exact (frozen context), and
// MergeTopK folds the shards' lists into the global one.
func (ix *Index) TopK(x, y float64, keywords []string, k int) ([]RankedObject, error) {
	if k <= 0 {
		return nil, fmt.Errorf("maxbrstknn: k must be positive")
	}
	if err := checkPoint(x, y); err != nil {
		return nil, err
	}
	sn := ix.acquire()
	defer sn.tree.Unpin()
	user := dataset.User{Loc: geo.Point{X: x, Y: y}, Doc: sn.docFromKeywords(keywords, nil)}
	scorer := ix.scorerFor(sn, geo.RectFromPoint(user.Loc))
	results, _, err := sn.tree.TopK(scorer, &user, k)
	if err != nil {
		return nil, err
	}
	out := make([]RankedObject, len(results))
	for i, r := range results {
		out[i] = RankedObject{ObjectID: ix.globalID(r.ObjID), Score: r.Score}
	}
	return out, nil
}

// unknownTerms assigns reserved negative ids (vocab.UnknownTerm) to
// keyword strings missing from the vocabulary. Within one registry the
// same string always maps to the same id and different strings to
// different ids, so an unknown keyword shared between a request's
// existing-keyword document and a user's document matches exactly when
// the strings match — never by accidental id collision. base is an
// optional frozen registry (a session's pooled user unknowns) consulted
// first and never written, so concurrent callers may share one base with
// private local maps.
type unknownTerms struct {
	base  map[string]vocab.TermID
	local map[string]vocab.TermID
}

func (u *unknownTerms) id(kw string) vocab.TermID {
	if id, ok := u.base[kw]; ok {
		return id
	}
	if id, ok := u.local[kw]; ok {
		return id
	}
	id := vocab.UnknownTerm(len(u.base) + len(u.local))
	if u.local == nil {
		u.local = make(map[string]vocab.TermID)
	}
	u.local[kw] = id
	return id
}

// docFromKeywords maps known keywords to a document. Unknown keywords get
// the reserved negative ids of vocab.UnknownTerm: they still occupy a
// term slot (diluting the user's normalizer, as a never-matching keyword
// should) but are guaranteed never to collide with a vocabulary id, no
// matter how much the vocabulary later grows via AddObject. Repeated
// unknown strings share one id so their frequency accumulates — exactly
// how repeated known keywords behave — rather than each occurrence
// occupying a distinct term slot. unknowns scopes the string→id mapping
// across documents that will be scored against each other (nil gives the
// document its own scope). Lookups resolve against the snapshot's fenced
// vocabulary view, so they are stable under concurrent writer growth: a
// keyword added to the vocabulary after this snapshot published is
// (correctly) unknown here.
func (sn *snapshot) docFromKeywords(keywords []string, unknowns *unknownTerms) vocab.Doc {
	if unknowns == nil {
		unknowns = &unknownTerms{}
	}
	terms := make([]vocab.TermID, 0, len(keywords))
	for _, kw := range keywords {
		if id, ok := sn.vocab.Lookup(kw); ok {
			terms = append(terms, id)
			continue
		}
		terms = append(terms, unknowns.id(kw))
	}
	return vocab.DocFromTerms(terms)
}
