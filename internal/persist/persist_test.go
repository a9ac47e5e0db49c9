package persist

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/irtree"
	"repro/internal/storage"
	"repro/internal/textrel"
	"repro/internal/vocab"
)

func testIndex(t testing.TB) *Index {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	v := vocab.New()
	words := []string{"sushi", "noodles", "coffee", "books", "vinyl"}
	objects := make([]dataset.Object, 50)
	for i := range objects {
		terms := []vocab.TermID{
			v.Add(words[rng.Intn(len(words))]),
			v.Add(words[rng.Intn(len(words))]),
		}
		objects[i] = dataset.Object{
			ID:  int32(i),
			Loc: geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10},
			Doc: vocab.DocFromTerms(terms),
		}
	}
	ds := dataset.Build(objects, v)
	ix := &Index{
		Measure: textrel.LM,
		Alpha:   0.5,
		Lambda:  textrel.DefaultLambda,
		Fanout:  8,
		DS:      ds,
	}
	ix.Tree = irtree.Build(ds, textrel.NewModelWithLambda(ix.Measure, ds, ix.Lambda), irtree.Config{Kind: irtree.MIRTree, Fanout: 8})
	return ix
}

// TestSaveIsDeterministic: the same index saved twice produces
// byte-identical files — no map-iteration order or timestamps leak into
// the format, so saved artifacts can be content-addressed and diffed.
func TestSaveIsDeterministic(t *testing.T) {
	ix := testIndex(t)
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.mxbr"), filepath.Join(dir, "b.mxbr")
	if err := Save(a, ix); err != nil {
		t.Fatal(err)
	}
	if err := Save(b, ix); err != nil {
		t.Fatal(err)
	}
	ab, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, bb) {
		t.Fatal("two saves of one index differ")
	}
}

// TestResaveIsStable: load → save cycles must not grow the file — the
// previous file's master record is superseded, not accumulated.
func TestResaveIsStable(t *testing.T) {
	ix := testIndex(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "ix.mxbr")
	if err := Save(path, ix); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	size := st.Size()
	for cycle := 0; cycle < 3; cycle++ {
		loaded, err := Load(path, 0)
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		err = Save(path, loaded)
		loaded.Close()
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() != size {
			t.Fatalf("cycle %d: file grew from %d to %d bytes", cycle, size, st.Size())
		}
	}
	// And the final file still loads and matches.
	final, err := Load(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer final.Close()
	if final.Tree.NumNodes() != ix.Tree.NumNodes() {
		t.Fatal("tree shape drifted across re-save cycles")
	}
}

// TestFailedSavePreservesExistingFile: a save that cannot complete must
// leave a previously saved index untouched (temp-file + rename).
func TestFailedSavePreservesExistingFile(t *testing.T) {
	ix := testIndex(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "ix.mxbr")
	if err := Save(path, ix); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage: the temp sibling's location is a directory, so creating
	// it fails before a single byte of the existing file is touched.
	if err := os.Mkdir(path+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := Save(path, ix); err == nil {
		t.Fatal("Save succeeded writing into a directory")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("failed save modified the existing index file")
	}
}

// TestLoadRejectsCorruptLambda: data pages are not checksummed, so the
// decoder must range-check parameters — a bit-flipped lambda surfaces as
// an error, not as the textrel constructor panic.
func TestLoadRejectsCorruptLambda(t *testing.T) {
	ix := testIndex(t)
	path := filepath.Join(t.TempDir(), "ix.mxbr")
	if err := Save(path, ix); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	root := int64(leUint64(raw[44:52])) - 1
	// Master record layout: version(1) measure(1) alpha(8) explicit(1)
	// lambda(8)...; blow up lambda's exponent byte.
	off := storage.PageSize*(1+root) + 11 + 7
	raw[off] = 0x7F
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path, 0)
	if err == nil {
		got.Close()
		t.Fatal("Load accepted a corrupt lambda")
	}
	if !strings.Contains(err.Error(), "lambda") {
		t.Fatalf("want a lambda range error, got: %v", err)
	}
}

func leUint64(b []byte) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// TestLoadRebuildsIdenticalState: the loaded dataset, vocabulary, and
// tree metadata must replicate the originals exactly — the invariants the
// facade's byte-identical query guarantee rests on.
func TestLoadRebuildsIdenticalState(t *testing.T) {
	ix := testIndex(t)
	path := filepath.Join(t.TempDir(), "ix.mxbr")
	if err := Save(path, ix); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()

	if got.Measure != ix.Measure || got.Alpha != ix.Alpha || got.Lambda != ix.Lambda || got.Fanout != ix.Fanout {
		t.Fatalf("options drifted: %+v", got)
	}
	if got.DS.Vocab.Size() != ix.DS.Vocab.Size() {
		t.Fatalf("vocab size %d != %d", got.DS.Vocab.Size(), ix.DS.Vocab.Size())
	}
	for i := 0; i < ix.DS.Vocab.Size(); i++ {
		id := vocab.TermID(i)
		if got.DS.Vocab.Term(id) != ix.DS.Vocab.Term(id) {
			t.Fatalf("term %d: %q != %q", i, got.DS.Vocab.Term(id), ix.DS.Vocab.Term(id))
		}
	}
	if len(got.DS.Objects) != len(ix.DS.Objects) {
		t.Fatalf("object count %d != %d", len(got.DS.Objects), len(ix.DS.Objects))
	}
	for i, o := range ix.DS.Objects {
		g := got.DS.Objects[i]
		if g.ID != o.ID || g.Loc != o.Loc || !g.Doc.Equal(o.Doc) {
			t.Fatalf("object %d drifted: %+v != %+v", i, g, o)
		}
	}
	if got.DS.Space != ix.DS.Space {
		t.Fatalf("space %+v != %+v", got.DS.Space, ix.DS.Space)
	}
	if !reflect.DeepEqual(got.DS.Stats, ix.DS.Stats) {
		t.Fatalf("stats drifted: %+v != %+v", got.DS.Stats, ix.DS.Stats)
	}
	n := len(ix.DS.Stats.CollectionFreq)
	if g, w := textrel.MaxWeights(got.Tree.Model(), n), textrel.MaxWeights(ix.Tree.Model(), n); !reflect.DeepEqual(g, w) {
		t.Fatalf("model maxima drifted: %v != %v", g, w)
	}
	if got.Tree.Kind() != ix.Tree.Kind() || got.Tree.NumNodes() != ix.Tree.NumNodes() ||
		got.Tree.Height() != ix.Tree.Height() || got.Tree.RootID() != ix.Tree.RootID() ||
		got.Tree.DiskPages() < ix.Tree.DiskPages() {
		t.Fatalf("tree shape drifted")
	}

	// Every node record must be byte-identical through the disk backend.
	for id := int32(0); int(id) < ix.Tree.NumNodes(); id++ {
		want, err := ix.Tree.ReadNode(id)
		if err != nil {
			t.Fatal(err)
		}
		have, err := got.Tree.ReadNode(id)
		if err != nil {
			t.Fatal(err)
		}
		if want.Leaf != have.Leaf || len(want.Entries) != len(have.Entries) || want.InvID != have.InvID {
			t.Fatalf("node %d drifted", id)
		}
	}
}

// TestLoadRejectsCorruptTreeFanout: the tree metadata inside the master
// record carries its own copy of the fanout, which a mutation trusts to
// bound node sizes. A byte flipped to a fanout below 4, or to one that
// disagrees with the master record's, must fail the load.
func TestLoadRejectsCorruptTreeFanout(t *testing.T) {
	ix := testIndex(t)
	path := filepath.Join(t.TempDir(), "ix.mxbr")
	if err := Save(path, ix); err != nil {
		t.Fatal(err)
	}
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	meta := ix.Tree.EncodeMeta() // kind, then the fanout (8): one byte each
	at := bytes.Index(pristine, meta)
	if at < 0 || bytes.Index(pristine[at+1:], meta) >= 0 || meta[1] != 8 {
		t.Fatalf("tree metadata found at %d in the saved file, fanout byte %d: want one copy, fanout 8", at, meta[1])
	}
	for _, fanout := range []byte{0, 3, 9} {
		raw := bytes.Clone(pristine)
		raw[at+1] = fanout
		bad := filepath.Join(t.TempDir(), "bad.mxbr")
		if err := os.WriteFile(bad, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := Load(bad, 0)
		if err == nil {
			got.Close()
			t.Fatalf("fanout %d: Load accepted the corrupt tree metadata", fanout)
		}
		if !strings.Contains(err.Error(), "corrupt tree metadata") {
			t.Fatalf("fanout %d: want a corrupt tree metadata error, got: %v", fanout, err)
		}
	}
}

// TestLoadRejectsCorruptObjectTerms: an object's terms are stored
// ascending, as deltas, each with a frequency Save never writes outside
// 1..MaxInt32. A file whose second term delta of object 0 reads 0 (a
// repeated term) or whose frequency reads 0 must fail to load with an
// error naming the object — not load with a term silently dropped — and
// so must a master record whose frequency exceeds MaxInt32.
func TestLoadRejectsCorruptObjectTerms(t *testing.T) {
	v := vocab.New()
	a, b := v.Add("a"), v.Add("b")
	objects := []dataset.Object{
		{ID: 0, Loc: geo.Point{X: 1.25, Y: 2.5}, Doc: vocab.DocFromTerms([]vocab.TermID{a, b})},
		{ID: 1, Loc: geo.Point{X: 3.75, Y: 4.5}, Doc: vocab.DocFromTerms([]vocab.TermID{b})},
	}
	ds := dataset.Build(objects, v)
	ix := &Index{Measure: textrel.LM, Alpha: 0.5, Lambda: textrel.DefaultLambda, Fanout: 8, DS: ds}
	ix.Tree = irtree.Build(ds, textrel.NewModelWithLambda(ix.Measure, ds, ix.Lambda), irtree.Config{Kind: irtree.MIRTree, Fanout: 8})
	path := filepath.Join(t.TempDir(), "ix.mxbr")
	if err := Save(path, ix); err != nil {
		t.Fatal(err)
	}
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Object 0: x, y, two unique terms, then (delta 0, freq 1) and
	// (delta 1, freq 1).
	obj0 := storage.AppendFloat64(storage.AppendFloat64(nil, 1.25), 2.5)
	obj0 = append(obj0, 2, 0, 1, 1, 1)
	at := bytes.Index(pristine, obj0)
	if at < 0 || bytes.Index(pristine[at+1:], obj0) >= 0 {
		t.Fatal("object 0's terms are not stored once where expected")
	}
	terms := at + 16 + 1 // past x, y and the term count
	for name, off := range map[string]int{"repeated term": terms + 2, "zero frequency": terms + 3} {
		raw := bytes.Clone(pristine)
		raw[off] = 0
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := Load(path, 0)
		if err == nil {
			t.Fatalf("%s: Load accepted object 0 as %v", name, got.DS.Objects[0].Doc.Terms())
		}
		if !strings.Contains(err.Error(), "object 0") {
			t.Fatalf("%s: want an error naming object 0, got: %v", name, err)
		}
	}

	master := encodeMaster(ix)
	at = bytes.Index(master, obj0)
	freq := at + 16 + 1 + 1                                                                              // object 0's first frequency
	huge := append(append(bytes.Clone(master[:freq]), 0x80, 0x80, 0x80, 0x80, 0x08), master[freq+1:]...) // 2^31
	if _, err := decodeMaster(huge); err == nil || !strings.Contains(err.Error(), "object 0") {
		t.Fatalf("frequency 2^31: want an error naming object 0, got %v", err)
	}
}

// TestLoadRejectsOutOfRangePoint: format 6 predates the coordinate range,
// so a file saved before it may hold an object at 1e300, whose distances
// overflow and make every score NaN. Load must refuse it with an error
// naming the object, and so must it an infinite coordinate (a NaN one
// already fails the corpus's object space check).
func TestLoadRejectsOutOfRangePoint(t *testing.T) {
	for _, x := range []float64{1e300, -1e300, math.Inf(1)} {
		v := vocab.New()
		a := v.Add("a")
		objects := []dataset.Object{
			{ID: 0, Loc: geo.Point{X: 1.25, Y: 2.5}, Doc: vocab.DocFromTerms([]vocab.TermID{a})},
			{ID: 1, Loc: geo.Point{X: x, Y: 0.5}, Doc: vocab.DocFromTerms([]vocab.TermID{a})},
		}
		ds := dataset.Build(objects, v)
		ix := &Index{Measure: textrel.LM, Alpha: 0.5, Lambda: textrel.DefaultLambda, Fanout: 8, DS: ds}
		ix.Tree = irtree.Build(ds, textrel.NewModelWithLambda(ix.Measure, ds, ix.Lambda), irtree.Config{Kind: irtree.MIRTree, Fanout: 8})
		path := filepath.Join(t.TempDir(), "ix.mxbr")
		if err := Save(path, ix); err != nil {
			t.Fatal(err)
		}
		got, err := Load(path, 0)
		if err == nil {
			got.Close()
			t.Fatalf("x = %g: Load accepted object 1 at %v", x, got.DS.Objects[1].Loc)
		}
		if !strings.Contains(err.Error(), "object 1") {
			t.Fatalf("x = %g: want an error naming object 1, got: %v", x, err)
		}
	}
}
