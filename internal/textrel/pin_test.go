package textrel

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/vocab"
)

// pinnedScores is, per measure, the sha256 of every model and scorer
// output TestScoresBitIdentical draws. Every saved index, Norm(u), score
// and answer rests on these bits: a change to how a weight, a sum, a
// maximum or Equation 1 is formed moves its measure's digest. The
// Language Model's moved when its sums became a floor plus increments
// (Model.Sum's order, Weight the increment, maxima formed like the
// increments); the other three measures' floors are zero and theirs held.
var pinnedScores = map[MeasureKind]string{
	LM:    "aea8b1f8b579fb2ef8e2c48cd6c0ce28e920cc380b0e4cf3f34ab592eb8e5a40",
	TFIDF: "9148a1657fd3af843ea35ddfda6d2418e92157f5adab06636c74589b14b19d4f",
	KO:    "4ca82e95c7ac628af4ad284bcbb6298764f86832f4af4ceb57b9c94d3bfb12af",
	BM25:  "3f3a39a8d48298266b46fcb8e1a44e2fa4a38a4911bd8eeaf16d2d3994394c29",
}

// TestScoresBitIdentical hashes Weight, MaxWeight, FloorWeight, AddWeight,
// AdditionMonotone, Norm and STS over a generated corpus, for each of the
// four measures, two values of λ, the scanned and the frozen model, known,
// unknown and negative term ids and empty documents, and pins each
// measure's digest. The scanned and frozen models must also agree bit for
// bit.
func TestScoresBitIdentical(t *testing.T) {
	ds := dataset.GenerateFlickr(dataset.DefaultFlickrConfig(2000))
	us := dataset.GenerateUsers(ds, dataset.UserConfig{NumUsers: 40, UL: 4, UW: 20, Area: 10, Seed: 7})
	n := len(ds.Stats.CollectionFreq)
	probes := []vocab.TermID{vocab.UnknownTerm(0), vocab.UnknownTerm(6), vocab.TermID(n), vocab.TermID(n + 5)}
	for i := 0; i < n; i++ {
		probes = append(probes, vocab.TermID(i))
	}
	// Documents: every 10th object's, the empty one, and two holding
	// unknown and negative ids beside known ones.
	var docs []vocab.Doc
	for i := 0; i < len(ds.Objects); i += 10 {
		docs = append(docs, ds.Objects[i].Doc)
	}
	docs = append(docs, vocab.Doc{},
		vocab.DocFromTerms([]vocab.TermID{vocab.UnknownTerm(0), 3, 3, vocab.TermID(n + 5)}),
		ds.Objects[1].Doc.MergeTerms([]vocab.TermID{vocab.UnknownTerm(2), vocab.TermID(n)}))
	users := us.Users
	users = append(users,
		dataset.User{ID: 100, Doc: vocab.DocFromTerms([]vocab.TermID{vocab.UnknownTerm(0), 3, vocab.TermID(n + 5)})},
		dataset.User{ID: 101, Doc: vocab.DocFromTerms(append([]vocab.TermID{vocab.UnknownTerm(2)}, us.Keywords[:3]...))},
		dataset.User{ID: 102})

	for _, kind := range []MeasureKind{LM, TFIDF, KO, BM25} {
		h := sha256.New()
		for li, lambda := range []float64{DefaultLambda, 0.85} {
			full := NewModelWithLambda(kind, ds, lambda)
			froz, err := NewModelFrozen(kind, ds.Stats, lambda, MaxWeights(full, n))
			if err != nil {
				t.Fatalf("%v λ=%v: %v", kind, lambda, err)
			}
			alpha := []float64{0.3, 0.8}[li]
			var digests [2]string
			for mi, s := range []*Scorer{{Model: full, Alpha: alpha, DMax: ds.DMax()}, {Model: froz, Alpha: alpha, DMax: ds.DMax()}} {
				mh := sha256.New()
				hashScores(mh, s, probes, docs, ds, users)
				digests[mi] = hex.EncodeToString(mh.Sum(nil))
			}
			if digests[0] != digests[1] {
				t.Fatalf("%v λ=%v: frozen model's digest %s, the scanned one's %s", kind, lambda, digests[1], digests[0])
			}
			h.Write([]byte(digests[0]))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != pinnedScores[kind] {
			t.Errorf("%v: score digest %s, pinned %s", kind, got, pinnedScores[kind])
		}
	}
}

// hashScores writes every output of s's model and of s over the probes,
// documents and users into h.
func hashScores(h hash.Hash, s *Scorer, probes []vocab.TermID, docs []vocab.Doc, ds *dataset.Dataset, users []dataset.User) {
	put := func(v float64) { h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v))) }
	m := s.Model
	if m.AdditionMonotone() {
		put(1)
	}
	for _, tm := range probes {
		put(m.MaxWeight(tm))
		put(m.FloorWeight(tm))
	}
	for di, d := range docs {
		terms := append(append([]vocab.TermID(nil), d.Terms()...), probes[di%len(probes)], probes[(7*di+3)%len(probes)], probes[0], probes[2])
		for _, tm := range terms {
			put(m.Weight(d, tm))
			put(m.AddWeight(d, tm))
		}
	}
	for ui := range users {
		u := &users[ui]
		norm := s.Norm(u.Doc)
		put(norm)
		for i := ui % 10; i < len(ds.Objects); i += 10 {
			o := &ds.Objects[i]
			put(s.STS(o.Loc, o.Doc, u.Loc, u.Doc, norm))
		}
	}
}
