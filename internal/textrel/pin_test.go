package textrel

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/vocab"
)

// pinnedText is, per measure, the sha256 of every text output
// TestScoresBitIdentical draws: Weight, MaxWeight, FloorWeight, AddWeight,
// AdditionMonotone, Norm and Model.Sum. Every saved index, Norm(u), score
// and answer rests on these bits: a change to how a weight, a sum or a
// maximum is formed moves its measure's digest. They held when geo's
// distance changed (pinnedScores).
var pinnedText = map[MeasureKind]string{
	LM:    "1bd040f300f3d107ec684f30b15834228e02df9da6c05107157c95261c8dad86",
	TFIDF: "2f9637f0c7a8289edc1cd58472c0bd1b08d1ad7263e383cba75d3e7a65aac3a7",
	KO:    "51e077ee9a7c23abfc46630b9d8f96d83d17d52566ab22cfd1034fa920ca08d6",
	BM25:  "e02880c2b6159641b4621fe5b29c0e837ad1752f26e87519f550a6b28ea82e31",
}

// pinnedScores is, per measure, the sha256 of SS, SSMin, SSMax and STS
// over the same draws: a change to how a distance or Equation 1 is formed
// moves it. They moved when geo's distance became √(dx²+dy²) with each
// operation rounded, in place of the standard library's Hypot, and
// SSMin and SSMax lost the 7-float step their distances took.
var pinnedScores = map[MeasureKind]string{
	LM:    "b23acfd60becbd98ee0db6c3e89e0690ca3299c75d621268347be54dd3dda217",
	TFIDF: "d15efa701ab777c915abb858752c753a9d42ed287bcda4b635815be398a7227e",
	KO:    "c34976c47f3e1d80828a8d82bfd37cbe6889ad2a7cc5fa27ca57851328eb82a0",
	BM25:  "fc878ac75ebfc63e48e0cad17c159cf67313be920648b81654147d1070bd675f",
}

// TestScoresBitIdentical hashes the text outputs (hashText) and the
// spatial and combined scores (hashScores) over a generated corpus, for
// each of the four measures, two values of λ, the scanned and the frozen
// model, known, unknown and negative term ids and empty documents, and pins
// each measure's two digests. The scanned and frozen models must also agree
// bit for bit.
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
		text, scores := sha256.New(), sha256.New()
		for li, lambda := range []float64{DefaultLambda, 0.85} {
			full := NewModelWithLambda(kind, ds, lambda)
			froz, err := NewModelFrozen(kind, ds.Stats, lambda, MaxWeights(full, n))
			if err != nil {
				t.Fatalf("%v λ=%v: %v", kind, lambda, err)
			}
			alpha := []float64{0.3, 0.8}[li]
			var digests [2][2]string
			for mi, s := range []*Scorer{{Model: full, Alpha: alpha, DMax: ds.DMax()}, {Model: froz, Alpha: alpha, DMax: ds.DMax()}} {
				th, sh := sha256.New(), sha256.New()
				hashText(th, s, probes, docs, ds, users)
				hashScores(sh, s, ds, users)
				digests[mi] = [2]string{hex.EncodeToString(th.Sum(nil)), hex.EncodeToString(sh.Sum(nil))}
			}
			if digests[0] != digests[1] {
				t.Fatalf("%v λ=%v: frozen model's digests %s, the scanned one's %s", kind, lambda, digests[1], digests[0])
			}
			text.Write([]byte(digests[0][0]))
			scores.Write([]byte(digests[0][1]))
		}
		if got := hex.EncodeToString(text.Sum(nil)); got != pinnedText[kind] {
			t.Errorf("%v: text digest %s, pinned %s", kind, got, pinnedText[kind])
		}
		if got := hex.EncodeToString(scores.Sum(nil)); got != pinnedScores[kind] {
			t.Errorf("%v: score digest %s, pinned %s", kind, got, pinnedScores[kind])
		}
	}
}

// putFloat writes v's bits into h.
func putFloat(h hash.Hash, v float64) {
	h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
}

// hashText writes every output of s's model, and Norm, over the probes,
// documents and users into h, and Model.Sum of every user's terms over
// every 10th object's document.
func hashText(h hash.Hash, s *Scorer, probes []vocab.TermID, docs []vocab.Doc, ds *dataset.Dataset, users []dataset.User) {
	m := s.Model
	if m.AdditionMonotone() {
		putFloat(h, 1)
	}
	for _, tm := range probes {
		putFloat(h, m.MaxWeight(tm))
		putFloat(h, m.FloorWeight(tm))
	}
	for di, d := range docs {
		terms := append(append([]vocab.TermID(nil), d.Terms()...), probes[di%len(probes)], probes[(7*di+3)%len(probes)], probes[0], probes[2])
		for _, tm := range terms {
			putFloat(h, m.Weight(d, tm))
			putFloat(h, m.AddWeight(d, tm))
		}
	}
	for ui := range users {
		u := &users[ui]
		putFloat(h, s.Norm(u.Doc))
		for i := ui % 10; i < len(ds.Objects); i += 10 {
			putFloat(h, m.Sum(ds.Objects[i].Doc, u.Doc.Terms()))
		}
	}
}

// hashScores writes, for every user and every 10th object, SS and STS of
// the pair, and SSMin and SSMax of the user's point against the rectangle
// of the object and the next one, into h.
func hashScores(h hash.Hash, s *Scorer, ds *dataset.Dataset, users []dataset.User) {
	for ui := range users {
		u := &users[ui]
		norm := s.Norm(u.Doc)
		for i := ui % 10; i < len(ds.Objects); i += 10 {
			o := &ds.Objects[i]
			r := geo.RectFromPoint(o.Loc).UnionPoint(ds.Objects[(i+1)%len(ds.Objects)].Loc)
			putFloat(h, s.SS(o.Loc, u.Loc))
			putFloat(h, s.SSMin(geo.RectFromPoint(u.Loc), r))
			putFloat(h, s.SSMax(geo.RectFromPoint(u.Loc), r))
			putFloat(h, s.STS(o.Loc, o.Doc, u.Loc, u.Doc, norm))
		}
	}
}
