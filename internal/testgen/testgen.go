// Package testgen draws the random instances that the brute-force oracle
// and the three bound properties check, and that the sharding and
// persistence fixtures take their corpus from. One seed draws one
// instance, in internal types: a corpus, users, two queries and a write
// history, with the measure, α, λ, fanout and decoded-cache setting to
// build them under. Each consumer builds what it checks from a draw, and
// a tree-level one applies the write history with Replay.
//
// It is test support: no non-test file imports it, and each declaration is
// used by a _test.go file or another declaration (internal/lint's
// self-check holds both), so it has no methods: only type-checked tests
// would show their uses.
package testgen

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/vocab"
)

// Op is a write of a write history: Insert, Update or Delete.
type Op int

const (
	Insert Op = iota
	Update
	Delete
)

// Write is one step of a write history: Insert adds Object; Update
// replaces, and Delete removes, the live object at position Pick mod the
// live count. A Delete that would leave no object is skipped. Object's ID
// is left to the consumer.
type Write struct {
	Op     Op
	Pick   int
	Object dataset.Object
}

// Query is one request: candidate locations, the candidate keywords W as
// drawn (unordered, with repeats), the existing document ox.d and ws.
type Query struct {
	Locations []geo.Point
	W         []vocab.TermID
	OxDoc     vocab.Doc
	WS        int
}

// Candidates returns q's W ascending and distinct, as the engine takes it.
func Candidates(q Query) []vocab.TermID { return slices.Compact(slices.Sorted(slices.Values(q.W))) }

// Instance is one draw. The corpus holds terms 0..Words-1, skewed toward
// 0. Words and Words+1 are new terms: only writes, users, W and ox.d hold
// them, so a model over the corpus has no statistics for them. Users, W
// and ox.d also hold terms of no vocabulary, vocab.UnknownTerm(0) and (1).
// Measure is a textrel.MeasureKind, which this package cannot import:
// textrel's own tests import it.
type Instance struct {
	Words   int
	Corpus  []dataset.Object // ids 0..len-1
	Users   []dataset.User   // ids 0..len-1
	K       int
	Queries []Query // two, on one cohort
	Script  []Write // empty on a third of the draws
	Measure int
	Alpha   float64
	Lambda  float64
	Fanout  int
	Cached  bool // build with the decoded cache on
}

// Draw draws instance seed. Consecutive seeds take the measures in turn;
// each four take the next fanout and the next λ, the pairs shifting every
// 24 seeds. The rest comes from a stream seeded with the seed mixed by
// splitmix64's finalizer, as math/rand's streams for neighbouring seeds
// begin alike. A quarter of the coordinates lie on a 2.5 grid, so points
// and distances repeat. A seventh of the objects copy an earlier one, a
// seventh take the point of one and the document of another, and a
// seventh have no keywords; a tenth of the users copy an earlier one, a
// tenth have no keywords, and a tenth hold one new or unknown term alone.
// At fanout 300 two corpora in three hold 257–296 objects, a root leaf
// wider than 256 entries.
func Draw(seed int64) *Instance {
	z := (uint64(seed) ^ uint64(seed)>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	rng, b := rand.New(rand.NewSource(int64(z^z>>31))), uint64(seed)/4
	in := &Instance{Measure: int(uint64(seed) % 4), Fanout: []int{4, 5, 8, 16, 32, 300}[b%6],
		Words: 1 + rng.Intn(10), Alpha: rng.Float64(), Lambda: rng.Float64(), Cached: rng.Intn(2) == 0}
	if r := (b + b/6) % 6; r > 0 { // the default, two far from it, and both ends
		in.Lambda = []float64{0.4, 0.85, 0.1, 0, 1}[r-1]
	}
	word := func(n int) vocab.TermID { return vocab.TermID(float64(n) * math.Pow(rng.Float64(), 2)) }
	odd := func() vocab.TermID { // unknown two times in three, else new
		return []vocab.TermID{vocab.UnknownTerm(0), vocab.UnknownTerm(1), vocab.TermID(in.Words + rng.Intn(2))}[rng.Intn(3)]
	}
	terms := func(n int) []vocab.TermID { // up to n terms of a user, W or ox.d
		out := make([]vocab.TermID, rng.Intn(n+1))
		for i := range out {
			if out[i] = word(in.Words); rng.Intn(4) == 0 {
				out[i] = odd()
			}
		}
		return out
	}
	doc := func(n, words int) vocab.Doc { // up to n occurrences of terms below words
		f := map[vocab.TermID]int32{}
		for range rng.Intn(n + 1) {
			f[word(words)]++
		}
		return vocab.NewDoc(f)
	}
	coord := func() float64 {
		if rng.Intn(4) == 0 {
			return float64(rng.Intn(5)) * 2.5
		}
		return rng.Float64() * 10
	}
	point := func() geo.Point { return geo.Point{X: coord(), Y: coord()} }

	n := 1 + rng.Intn(120)
	if in.Fanout == 300 && rng.Intn(3) > 0 {
		n = 257 + rng.Intn(40)
	}
	for i := range n {
		o := dataset.Object{ID: int32(i), Loc: point(), Doc: doc(6, in.Words)}
		switch r := rng.Intn(7); {
		case i > 0 && r == 0:
			o.Loc, o.Doc = in.Corpus[rng.Intn(i)].Loc, in.Corpus[rng.Intn(i)].Doc
		case i > 0 && r == 1:
			o = in.Corpus[rng.Intn(i)]
			o.ID = int32(i)
		case r == 2:
			o.Doc = vocab.Doc{}
		}
		in.Corpus = append(in.Corpus, o)
	}
	for i := range 1 + rng.Intn(12) {
		u := dataset.User{ID: int32(i), Loc: point()}
		switch r := rng.Intn(10); {
		case i > 0 && r == 0:
			u.Loc, u.Doc = in.Users[rng.Intn(i)].Loc, in.Users[rng.Intn(i)].Doc
		case r == 1: // no keywords
		case r == 2:
			u.Doc = vocab.DocFromTerms([]vocab.TermID{odd()})
		default:
			u.Doc = vocab.DocFromTerms(terms(4))
		}
		in.Users = append(in.Users, u)
	}
	in.K = 1 + rng.Intn(5)
	if rng.Intn(4) == 0 {
		in.K = 1 + rng.Intn(n+3)
	}
	for range 2 {
		q := Query{OxDoc: vocab.DocFromTerms(terms(3)), W: terms(6)}
		q.WS = rng.Intn(len(q.W) + 2)
		for range 1 + rng.Intn(5) {
			q.Locations = append(q.Locations, point())
		}
		in.Queries = append(in.Queries, q)
	}
	if rng.Intn(3) > 0 {
		for range 3 + rng.Intn(18) {
			in.Script = append(in.Script, Write{Op(rng.Intn(3)), rng.Intn(1 << 20), dataset.Object{Loc: point(), Doc: doc(4, in.Words+2)}})
		}
	}
	return in
}

// Name names term t in facade terms: "w0", "w1", …; a new term is named
// the same way past the corpus's, and an unknown one "w-1" or "w-2".
func Name(t vocab.TermID) string { return fmt.Sprintf("w%d", t) }

// Keywords names doc's terms, each as often as it occurs.
func Keywords(doc vocab.Doc) (kws []string) {
	doc.ForEach(func(t vocab.TermID, f int32) {
		for range f {
			kws = append(kws, Name(t))
		}
	})
	return kws
}

// Replay applies in's write history, from its corpus, through write,
// which deletes object del unless it is negative and then inserts o
// unless it is nil. Replay keeps the live ids: a write picks the live
// object at Pick mod their count, an inserted object takes the next id
// (the corpus's count plus the objects inserted before it), and a Delete
// that would leave no object is skipped.
func Replay(in *Instance, write func(del int32, o *dataset.Object) error) error {
	live := make([]int32, len(in.Corpus))
	for i := range live {
		live[i] = int32(i)
	}
	next := int32(len(in.Corpus))
	for _, w := range in.Script {
		j, o, del := w.Pick%len(live), w.Object, int32(-1)
		o.ID = next
		ins := &o
		switch {
		case w.Op == Insert:
			live = append(live, o.ID)
		case w.Op == Update:
			del, live[j] = live[j], o.ID
		case len(live) > 1:
			del, ins = live[j], nil
			live = slices.Delete(live, j, j+1)
		default:
			continue
		}
		if ins != nil {
			next++
		}
		if err := write(del, ins); err != nil {
			return err
		}
	}
	return nil
}

// Dataset builds in's corpus over a vocabulary of its terms and the two new
// ones, with statistics for the corpus terms alone: a model over it has
// none for the new terms, as for those of an object written after a build.
func Dataset(in *Instance) *dataset.Dataset {
	v := vocab.New()
	for i := range in.Words + 2 {
		v.Add(Name(vocab.TermID(i)))
	}
	ds := dataset.Build(slices.Clone(in.Corpus), v)
	ds.Stats.CollectionFreq, ds.Stats.DocFreq = ds.Stats.CollectionFreq[:in.Words], ds.Stats.DocFreq[:in.Words]
	return ds
}
