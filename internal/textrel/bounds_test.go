package textrel

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/vocab"
)

// The central soundness property behind the candidate-selection pruning:
// for every keyword subset c ⊆ W with |c| ≤ ws,
// Sum(ox.d ∪ c, u.d) ≤ TSAddUpperBound(ox.d, u.d, W, ws), with no slack —
// under the paper's three measures, including LM where adding keywords
// shrinks existing weights (BM25: TestBM25AddUpperBoundDominates).
// FuzzBoundsDominate holds the same bound to every such c.
func TestTSAddUpperBoundDominates(t *testing.T) {
	ds := dataset.GenerateFlickr(dataset.DefaultFlickrConfig(400))
	us := dataset.GenerateUsers(ds, dataset.UserConfig{NumUsers: 30, UL: 4, UW: 20, Area: 10, Seed: 9})
	for _, kind := range []MeasureKind{LM, TFIDF, KO} {
		checkAddUpperBound(t, NewScorer(ds, kind, 0.5), ds, us, rand.New(rand.NewSource(4)))
	}
}

// checkAddUpperBound draws 300 (ox.d, c, u) triples, ox.d sometimes empty,
// and fails on any exact sum above TSAddUpperBound.
func checkAddUpperBound(t *testing.T, s *Scorer, ds *dataset.Dataset, us dataset.UserSet, rng *rand.Rand) {
	t.Helper()
	w := NewCandidateSet(us.Keywords)
	for trial := 0; trial < 300; trial++ {
		var oxDoc vocab.Doc
		if rng.Intn(4) > 0 {
			oxDoc = ds.Objects[rng.Intn(len(ds.Objects))].Doc
		}
		ws := 1 + rng.Intn(4)
		var c []vocab.TermID
		for _, kw := range us.Keywords {
			if len(c) < ws && rng.Intn(3) == 0 {
				c = append(c, kw)
			}
		}
		ud := us.Users[rng.Intn(len(us.Users))].Doc
		ub := s.TSAddUpperBound(oxDoc, ud, w, ws)
		if actual := s.Model.Sum(oxDoc.MergeTerms(c), ud.Terms()); actual > ub {
			t.Fatalf("%s trial %d: Sum %v exceeds bound %v (|c|=%d ws=%d)",
				s.Model.kind, trial, actual, ub, len(c), ws)
		}
	}
}

func TestTSAddUpperBoundNoCandidates(t *testing.T) {
	ds, terms := corpus3(t)
	s := NewScorer(ds, LM, 0.5)
	ud := vocab.DocFromTerms([]vocab.TermID{terms[0]})
	oxDoc := ds.Objects[0].Doc
	// empty candidate set: the bound is just the current sum
	if got, want := s.TSAddUpperBound(oxDoc, ud, CandidateSet{}, 3), s.Model.Sum(oxDoc, ud.Terms()); got != want {
		t.Errorf("bound with no candidates = %v, want plain TS %v", got, want)
	}
}

func TestSTSAddUpperBound(t *testing.T) {
	ds, terms := corpus3(t)
	s := NewScorer(ds, KO, 0.6)
	ud := vocab.DocFromTerms([]vocab.TermID{terms[0], terms[2]})
	norm := s.Norm(ud)
	w := NewCandidateSet([]vocab.TermID{terms[2]})
	var empty vocab.Doc
	// TS bound: term c addable with weight 1 → (0+1)/2 = 0.5
	got := s.Combine(0.8, s.TSAddUpperBound(empty, ud, w, 1), norm)
	want := 0.6*0.8 + 0.4*0.5
	if !near(got, want) {
		t.Errorf("UBL = %v, want %v", got, want)
	}
}

func TestTopWeightedCandidates(t *testing.T) {
	ds, terms := corpus3(t)
	a, b, c := terms[0], terms[1], terms[2]
	s := NewScorer(ds, TFIDF, 0.5)
	ud := vocab.DocFromTerms([]vocab.TermID{a, b, c})
	w := NewCandidateSet([]vocab.TermID{a, b, c})
	var empty vocab.Doc

	// idf(c)=ln3 > idf(a)=idf(b)=ln1.5: top-2 is c, then a of the tied a
	// and b, the lower term.
	got := s.TopWeightedCandidates(empty, ud, w, 2, 0, false)
	if len(got) != 2 || got[0] != c || got[1] != a {
		t.Fatalf("top-2 = %v, want [c a]", got)
	}

	// forced include takes a slot and leads
	got = s.TopWeightedCandidates(empty, ud, w, 2, a, true)
	if len(got) != 2 || got[0] != a || got[1] != c {
		t.Fatalf("forced top-2 = %v, want [a c]", got)
	}

	// ws larger than the intersection: all of it
	got = s.TopWeightedCandidates(empty, ud, w, 10, 0, false)
	if len(got) != 3 {
		t.Fatalf("top-10 = %v, want all 3", got)
	}

	// no candidate overlap: empty
	other := NewCandidateSet([]vocab.TermID{vocab.TermID(99)})
	if got := s.TopWeightedCandidates(empty, ud, other, 2, 0, false); len(got) != 0 {
		t.Fatalf("disjoint candidates = %v, want empty", got)
	}
}

func TestNewCandidateSet(t *testing.T) {
	cs := NewCandidateSet([]vocab.TermID{1, 2, 2})
	if len(cs) != 2 || !cs[1] || !cs[2] || cs[3] {
		t.Errorf("candidate set = %v", cs)
	}
}
