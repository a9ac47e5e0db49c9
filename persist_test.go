package maxbrstknn

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/storage"
)

// randomIndex builds the corpus of drawInstance(seed) under the default
// options, and returns its first request.
func randomIndex(t *testing.T, seed int64) (*Index, Request) {
	t.Helper()
	in := drawInstance(seed)
	in.opts = Options{}
	return in.build(t, false), in.reqs[0]
}

// TestFormatFixture pins the on-disk format with a file another build
// wrote: testdata/reclaim_fixture.mxbr is reclaimFixture's index, saved
// when the Language Model's postings and maxima became increments without
// the smoothing floor (master version 6). Loading it must answer exactly
// as the in-memory build does, and saving the build must reproduce it
// byte for byte. testdata/format_v3.mxbr, format_v4.mxbr and
// format_v5.mxbr are the same index in the three formats before, which
// TestOldFormatFailsAtLoad pins.
func TestFormatFixture(t *testing.T) {
	const fixture = "testdata/reclaim_fixture.mxbr"
	want, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	idx := reclaimFixture(t)
	path := filepath.Join(t.TempDir(), "resaved.mxbr")
	if err := idx.Save(path); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Save wrote %d bytes (%v) that differ from the %d-byte fixture", len(got), err, len(want))
	}

	loaded, err := Load(fixture)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	for _, u := range reclaimRequest.Users {
		want, err := idx.TopK(u.X, u.Y, u.Keywords, 5)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.TopK(u.X, u.Y, u.Keywords, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("TopK(%+v): fixture %+v != in-memory %+v", u, got, want)
		}
	}
	for _, strat := range []Strategy{Exact, Approx, Exhaustive, UserIndexed} {
		req := reclaimRequest
		req.Strategy = strat
		want, err := idx.MaxBRSTkNN(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.MaxBRSTkNN(req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: fixture %+v != in-memory %+v", strat, got, want)
		}
	}
}

// TestOldFormatFailsAtLoad: an index saved in a format before this one —
// before posting records took their fixed-stride layout (v3), before the
// master record took the corpus context (v4), or before LM postings stored
// increments without the smoothing floor (v5) — fails inside Load, with
// the typed version error and a message that says to rebuild it — never
// at a first query.
func TestOldFormatFailsAtLoad(t *testing.T) {
	for _, path := range []string{"testdata/format_v3.mxbr", "testdata/format_v4.mxbr", "testdata/format_v5.mxbr"} {
		ix, err := Load(path)
		if err == nil {
			ix.Close()
			t.Fatalf("%s: an index of a format before loaded", path)
		}
		if !errors.Is(err, storage.ErrVersionMismatch) || !strings.Contains(err.Error(), "rebuild") {
			t.Fatalf("%s: Load error %v: want storage.ErrVersionMismatch, saying to rebuild", path, err)
		}
	}
}

// TestCompactedIndexSavesAndCompacts: a compacted index holds fewer
// objects than its corpus, so its corpus context cannot be re-derived
// from its objects. Compacted after deletes, it must compact again, save
// and load, and save and load after adds, each answering as it did.
func TestCompactedIndexSavesAndCompacts(t *testing.T) {
	words := []string{"sushi", "ramen", "taco"}
	b := NewBuilder()
	for i := range 10 {
		b.AddObject(float64(i), float64(i%3), words[i%3], words[(i+1)%3], words[i%2])
	}
	idx, err := b.Build(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{0, 4, 7} {
		if err := idx.DeleteObject(id); err != nil {
			t.Fatal(err)
		}
	}
	compacted, err := idx.Compact()
	if err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want *Index) {
		t.Helper()
		for _, kws := range [][]string{{"sushi"}, {"ramen", "taco"}, {"taco", "kebab"}} {
			g, err := got.TopK(4, 1, kws, 5)
			if err != nil {
				t.Fatal(err)
			}
			w, err := want.TopK(4, 1, kws, 5)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: TopK(%v) = %v, want %v", what, kws, g, w)
			}
		}
	}
	again, err := compacted.Compact()
	if err != nil {
		t.Fatal(err)
	}
	same("compacted twice", again, compacted)
	same("compacted, saved and loaded", reloaded(t, compacted), compacted)
	for i := range 4 {
		if _, err := compacted.AddObject(float64(i)+0.5, 2, words[i%3], words[i%3]); err != nil {
			t.Fatal(err)
		}
	}
	same("compacted, added to, saved and loaded", reloaded(t, compacted), compacted)
}

// TestWideNodesMatchWhenLoaded: at fanout 200 a leaf holds more than 128
// entries, past the one-byte varint deltas of the layout before this one,
// and at fanout 300 more than 256, so its records take two-byte deltas. A
// saved index loaded cold, so every read sums off the encoded bytes, must
// answer as the oracle does after adds, updates and deletes whose leaf
// inserts splice postings into those runs.
func TestWideNodesMatchWhenLoaded(t *testing.T) {
	for _, c := range []struct{ fanout, widest int }{{200, 128}, {300, 256}} {
		t.Run(fmt.Sprintf("fanout_%d", c.fanout), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(c.fanout)))
			pick := func() []string {
				return []string{fmt.Sprintf("w%03d", rng.Intn(200)), fmt.Sprintf("w%03d", rng.Intn(200))}
			}
			b := NewBuilder()
			for range 1500 {
				b.AddObject(rng.Float64()*10, rng.Float64()*10, pick()...)
			}
			idx, err := b.Build(Options{Fanout: c.fanout})
			if err != nil {
				t.Fatal(err)
			}
			tree := idx.snap.Load().tree
			root, err := tree.ReadNode(tree.RootID())
			if err != nil || root.Leaf {
				t.Fatalf("root %+v, err %v: want an internal root", root, err)
			}
			leafMax := 0
			for _, e := range root.Entries {
				leaf, err := tree.ReadNode(e.Child)
				if err != nil {
					t.Fatal(err)
				}
				leafMax = max(leafMax, len(leaf.Entries))
			}
			if leafMax <= c.widest {
				t.Fatalf("widest leaf has %d entries; the test needs more than %d", leafMax, c.widest)
			}
			loaded := reloaded(t, idx)
			for i := range 60 {
				x, y, kws := rng.Float64()*10, rng.Float64()*10, pick()
				switch i % 3 {
				case 0:
					_, err = loaded.AddObject(x, y, kws...)
				case 1:
					_, err = loaded.UpdateObject(i, x, y, kws...)
				default:
					err = loaded.DeleteObject(1000 + i)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			users := make([]UserSpec, 16)
			for i := range users {
				users[i] = UserSpec{X: rng.Float64() * 10, Y: rng.Float64() * 10, Keywords: pick()}
			}
			checkAgainstOracle(t, loaded, Request{
				Users:       users,
				Locations:   [][2]float64{{2, 2}, {8, 8}, {5, 5}, {1, 9}},
				Keywords:    append(pick(), pick()...),
				MaxKeywords: 2,
				K:           3,
			})
		})
	}
}

// TestLoadedIndexPhysicalReads checks the real-I/O ledger: a cold-loaded
// index reports physical page reads, and a warm decoded cache absorbs
// repeat traffic: the second run of a query misses nothing and charges no
// simulated I/O. The file still serves it the posting runs it wants, which
// the cached directories read by range.
func TestLoadedIndexPhysicalReads(t *testing.T) {
	idx, req := randomIndex(t, 114)
	path := filepath.Join(t.TempDir(), "ix.mxbr")
	if err := idx.Save(path); err != nil {
		t.Fatal(err)
	}
	if r, p := idx.ReadStats(); r != 0 || p != 0 {
		t.Fatalf("in-memory index reports physical reads %d/%d", r, p)
	}

	cold, err := LoadWithOptions(path, LoadOptions{DecodedCacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	if _, err := cold.MaxBRSTkNN(req); err != nil {
		t.Fatal(err)
	}
	records, pages := cold.ReadStats()
	if records == 0 || pages == 0 {
		t.Fatalf("cold index served a query without physical reads (records=%d pages=%d)", records, pages)
	}

	warm, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if _, err := warm.MaxBRSTkNN(req); err != nil {
		t.Fatal(err)
	}
	first, io := warm.CacheStats(), warm.SimulatedIO()
	if _, err := warm.MaxBRSTkNN(req); err != nil {
		t.Fatal(err)
	}
	second := warm.CacheStats()
	if second.DecodedHits == first.DecodedHits || second.DecodedMisses != first.DecodedMisses || warm.SimulatedIO() != io {
		t.Fatalf("repeat query was not absorbed by the decoded cache: %+v -> %+v, simulated I/O %d -> %d", first, second, io, warm.SimulatedIO())
	}
	if second.BufferHits+second.BufferMisses != 0 {
		t.Fatalf("buffer counters read %d/%d, want 0", second.BufferHits, second.BufferMisses)
	}
}

// TestLoadedIndexAddObject checks that a loaded index keeps accepting
// inserts (records written in memory beside the file's) and can be saved
// again.
func TestLoadedIndexAddObject(t *testing.T) {
	idx, req := randomIndex(t, 395)
	dir := t.TempDir()
	path := filepath.Join(dir, "ix.mxbr")
	if err := idx.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	// The inserted object carries a brand-new keyword: corpus statistics,
	// model arrays, and the space MBR must all stay frozen at their
	// build-time values on both sides (the load path must not recompute
	// them over the grown object set).
	if _, err := loaded.AddObject(3, 3, "w0", "brand-new"); err != nil {
		t.Fatalf("AddObject on loaded index: %v", err)
	}
	if _, err := idx.AddObject(3, 3, "w0", "brand-new"); err != nil {
		t.Fatal(err)
	}
	want, err := idx.MaxBRSTkNN(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.MaxBRSTkNN(req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after AddObject: loaded %+v != in-memory %+v", got, want)
	}
	// TopK compares raw scores, so even a tiny statistics drift fails.
	wantTop, err := idx.TopK(3, 3, []string{"w0", "brand-new"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	gotTop, err := loaded.TopK(3, 3, []string{"w0", "brand-new"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotTop, wantTop) {
		t.Fatalf("after AddObject: loaded TopK %+v != in-memory %+v", gotTop, wantTop)
	}

	// Save the grown loaded index and load it once more.
	path2 := filepath.Join(dir, "ix2.mxbr")
	if err := loaded.Save(path2); err != nil {
		t.Fatalf("re-Save of loaded index: %v", err)
	}
	reloaded, err := Load(path2)
	if err != nil {
		t.Fatal(err)
	}
	defer reloaded.Close()
	got2, err := reloaded.MaxBRSTkNN(req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2, want) {
		t.Fatalf("after re-save: reloaded %+v != in-memory %+v", got2, want)
	}
	gotTop2, err := reloaded.TopK(3, 3, []string{"w0", "brand-new"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotTop2, wantTop) {
		t.Fatalf("after re-save: reloaded TopK %+v != in-memory %+v", gotTop2, wantTop)
	}
}

// TestLoadRejectsCorruptFiles drives the error paths of the on-disk
// format: wrong magic, version mismatches, flipped bytes, truncation.
func TestLoadRejectsCorruptFiles(t *testing.T) {
	idx, _ := randomIndex(t, 646)
	dir := t.TempDir()
	good := filepath.Join(dir, "good.mxbr")
	if err := idx.Save(good); err != nil {
		t.Fatal(err)
	}
	pristine, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}

	write := func(t *testing.T, name string, mutate func(b []byte) []byte) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, mutate(append([]byte(nil), pristine...)), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	t.Run("bad magic", func(t *testing.T) {
		p := write(t, "magic.mxbr", func(b []byte) []byte { b[0] ^= 0xFF; return b })
		if _, err := Load(p); !errors.Is(err, storage.ErrBadMagic) {
			t.Fatalf("want ErrBadMagic, got %v", err)
		}
	})
	t.Run("file version mismatch", func(t *testing.T) {
		p := write(t, "version.mxbr", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], storage.FormatVersion+1)
			return b
		})
		if _, err := Load(p); !errors.Is(err, storage.ErrVersionMismatch) {
			t.Fatalf("want ErrVersionMismatch, got %v", err)
		}
	})
	t.Run("header bit flip", func(t *testing.T) {
		p := write(t, "hdrflip.mxbr", func(b []byte) []byte { b[20] ^= 0x01; return b })
		if _, err := Load(p); !errors.Is(err, storage.ErrChecksum) {
			t.Fatalf("want ErrChecksum, got %v", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		p := write(t, "trunc.mxbr", func(b []byte) []byte { return b[:len(b)/2] })
		if _, err := Load(p); !errors.Is(err, storage.ErrTruncated) {
			t.Fatalf("want ErrTruncated, got %v", err)
		}
	})
	t.Run("directory bit flip", func(t *testing.T) {
		p := write(t, "dirflip.mxbr", func(b []byte) []byte { b[len(b)-6] ^= 0x40; return b })
		if _, err := Load(p); !errors.Is(err, storage.ErrChecksum) {
			t.Fatalf("want ErrChecksum, got %v", err)
		}
	})
	t.Run("empty file", func(t *testing.T) {
		p := write(t, "empty.mxbr", func([]byte) []byte { return nil })
		if _, err := Load(p); !errors.Is(err, storage.ErrTruncated) {
			t.Fatalf("want ErrTruncated, got %v", err)
		}
	})
	t.Run("missing file", func(t *testing.T) {
		if _, err := Load(filepath.Join(dir, "nope.mxbr")); err == nil {
			t.Fatal("want error for missing file")
		}
	})
	// The pristine file must still load after all that.
	loaded, err := Load(good)
	if err != nil {
		t.Fatalf("pristine file: %v", err)
	}
	loaded.Close()
}

// TestFacadeNoPanic asserts that invalid options and requests surface as
// errors at the facade — no internal validation panic may cross the
// public API boundary.
func TestFacadeNoPanic(t *testing.T) {
	build := func(opts Options) (err error, panicked bool) {
		defer func() {
			if r := recover(); r != nil {
				panicked = true
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		b := NewBuilder()
		b.AddObject(1, 1, "x")
		_, err = b.Build(opts)
		return err, false
	}
	for name, opts := range map[string]Options{
		"alpha too big":    {Alpha: 1.5},
		"alpha negative":   {Alpha: -0.1},
		"alpha NaN":        {Alpha: nan()},
		"lambda too big":   {Lambda: 2},
		"lambda negative":  {Lambda: -1},
		"fanout too small": {Fanout: 2},
		"unknown measure":  {Measure: Measure(42)},
	} {
		err, panicked := build(opts)
		if panicked {
			t.Errorf("%s: panic crossed the facade: %v", name, err)
		} else if err == nil {
			t.Errorf("%s: Build accepted invalid options", name)
		}
	}
	// Valid edge values must still build.
	for name, opts := range map[string]Options{
		"alpha 0 explicit":  {ExplicitAlpha: true},
		"alpha 1":           {Alpha: 1},
		"lambda 0 explicit": {ExplicitLambda: true},
		"lambda 1":          {Lambda: 1},
		"fanout 4":          {Fanout: 4},
	} {
		if err, _ := build(opts); err != nil {
			t.Errorf("%s: Build rejected valid options: %v", name, err)
		}
	}
	// An explicit alpha of 0 survives Save and Load: a loaded index that
	// fell back to the default alpha would rank by distance too.
	zero := NewBuilder()
	zero.AddObject(1, 1, "x")
	zero.AddObject(9, 9, "x", "y")
	built, err := zero.Build(Options{ExplicitAlpha: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := built.TopK(1, 1, []string{"y"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := reloaded(t, built).TopK(1, 1, []string{"y"}, 2); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("alpha 0 explicit: loaded index answers %v (%v), built %v", got, err, want)
	}

	// Bad request parameters error rather than panic too.
	b := NewBuilder()
	b.AddObject(1, 1, "x")
	idx, err := b.Build(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.TopK(0, 0, []string{"x"}, 0); err == nil {
		t.Error("TopK accepted k=0")
	}
	if _, err := idx.MaxBRSTkNN(Request{}); err == nil {
		t.Error("MaxBRSTkNN accepted an empty request")
	}
}

func nan() float64 { var z float64; return z / z }

// TestUnknownKeywordsNeverMatch is the regression test for the fabricated
// unknown-TermID hack: unknown query keywords must never match any object.
// The old code assigned an unknown keyword the id Vocab.Size()+1000+i at
// document-creation time, so a user document created before the
// vocabulary grew by 1000+ terms (via AddObject) would silently start
// matching the freshly assigned real terms.
func TestUnknownKeywordsNeverMatch(t *testing.T) {
	b := NewBuilder()
	b.AddObject(5, 5, "anchor")
	// alpha=0: scores are pure keyword overlap, so any nonzero score is a
	// (false) textual match.
	idx, err := b.Build(Options{Measure: KeywordOverlap, ExplicitAlpha: true})
	if err != nil {
		t.Fatal(err)
	}

	// The user document with out-of-vocabulary keywords is created now,
	// while the vocabulary is tiny.
	users := []UserSpec{{X: 5, Y: 5, Keywords: []string{"never-seen-1", "never-seen-2"}}}
	s, err := idx.NewSession(users, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Grow the vocabulary far past the old fabrication window: the ids
	// the hack would have fabricated now belong to real object terms.
	for i := 0; i < 1200; i++ {
		if _, err := idx.AddObject(5, 5, fmt.Sprintf("grown-term-%04d", i)); err != nil {
			t.Fatal(err)
		}
	}

	tops, err := s.Phase1(nil, ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tops.PerUser[0] {
		if r.Score != 0 {
			t.Fatalf("unknown keywords matched object %d with score %v", r.ObjectID, r.Score)
		}
	}

	// The fresh-document path must stay clean too.
	res, err := idx.TopK(5, 5, []string{"never-seen-1", "never-seen-2"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Score != 0 {
			t.Fatalf("TopK: unknown keywords matched object %d with score %v", r.ObjectID, r.Score)
		}
	}
}
