package irtree

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/invfile"
	"repro/internal/textrel"
	"repro/internal/vocab"
)

// bruteTopK ranks all objects for a user by exact STS, ties by ascending
// id.
func bruteTopK(ds *dataset.Dataset, scorer *textrel.Scorer, u *dataset.User, k int) []Result {
	norm := scorer.Norm(u.Doc)
	all := make([]Result, len(ds.Objects))
	for i, o := range ds.Objects {
		all[i] = Result{ObjID: o.ID, Score: scorer.STS(o.Loc, o.Doc, u.Loc, u.Doc, norm)}
	}
	slices.SortFunc(all, func(a, b Result) int {
		if a.Score != b.Score {
			return cmp.Compare(b.Score, a.Score)
		}
		return cmp.Compare(a.ObjID, b.ObjID)
	})
	return all[:min(k, len(all))]
}

// The headline correctness test: best-first top-k must return exactly the
// exhaustive scan's list — ids, scores and RSk bit for bit — on both tree
// kinds, for every measure and several k, whichever way a node's postings
// are read: the byte-wise scan with no decoded cache, the same scan under
// a cache no record fits, or the cached directories of one that holds
// everything.
func TestTopKMatchesBruteForce(t *testing.T) {
	for _, kind := range []Kind{IRTree, MIRTree} {
		for _, measure := range []textrel.MeasureKind{textrel.LM, textrel.TFIDF, textrel.KO, textrel.BM25} {
			_, ds, scorer := buildSmall(t, kind, measure)
			us := dataset.GenerateUsers(ds, dataset.UserConfig{NumUsers: 25, UL: 3, UW: 15, Area: 20, Seed: 13})
			for _, cacheBytes := range []int64{0, 1 << 10, 8 << 20} {
				tree := Build(ds, scorer.Model, Config{Kind: kind, Fanout: 16, DecodedCacheBytes: cacheBytes})
				for _, k := range []int{1, 5, 10} {
					for ui := range us.Users {
						u := &us.Users[ui]
						got, rsk, err := tree.TopK(scorer, u, k)
						if err != nil {
							t.Fatal(err)
						}
						want := bruteTopK(ds, scorer, u, k)
						if !slices.Equal(got, want) || rsk != want[len(want)-1].Score {
							t.Fatalf("%v %s cache %d k=%d user %d: %v (RSk %v), exhaustive %v",
								kind, measure, cacheBytes, k, u.ID, got, rsk, want)
						}
					}
				}
				if st := tree.DecodedCacheStats(); cacheBytes == 1<<10 && st.Entries != 0 {
					t.Fatalf("a %d-byte decoded cache holds %d entries: the no-fit setting is not one", cacheBytes, st.Entries)
				}
			}
		}
	}
}

func TestTopKDescendingOrder(t *testing.T) {
	tree, ds, scorer := buildSmall(t, MIRTree, textrel.LM)
	us := dataset.GenerateUsers(ds, dataset.UserConfig{NumUsers: 5, UL: 3, UW: 10, Area: 20, Seed: 17})
	u := &us.Users[0]
	got, _, err := tree.TopK(scorer, u, 20)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Score < got[i].Score {
			t.Fatalf("results not descending at %d: %v < %v", i, got[i-1].Score, got[i].Score)
		}
	}
}

func TestTopKPrunesIO(t *testing.T) {
	tree, ds, scorer := buildSmall(t, MIRTree, textrel.LM)
	us := dataset.GenerateUsers(ds, dataset.UserConfig{NumUsers: 5, UL: 2, UW: 10, Area: 5, Seed: 19})
	u := &us.Users[0]
	tree.IO().Reset()
	if _, _, err := tree.TopK(scorer, u, 5); err != nil {
		t.Fatal(err)
	}
	if visits := tree.IO().NodeVisits(); visits >= int64(tree.NumNodes()) {
		t.Errorf("best-first search visited %d of %d nodes — no pruning", visits, tree.NumNodes())
	}
}

func TestTopKKLargerThanDataset(t *testing.T) {
	tree, ds, scorer := buildSmall(t, MIRTree, textrel.KO)
	us := dataset.GenerateUsers(ds, dataset.UserConfig{NumUsers: 2, UL: 2, UW: 10, Area: 20, Seed: 23})
	u := &us.Users[0]
	got, rsk, err := tree.TopK(scorer, u, len(ds.Objects)+10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ds.Objects) {
		t.Errorf("got %d results, want all %d", len(got), len(ds.Objects))
	}
	if rsk != -math.MaxFloat64 {
		t.Errorf("RSk with unfilled top-k = %v, want -MaxFloat64", rsk)
	}
}

func TestMaxMinTextSums(t *testing.T) {
	ds, terms := func() (*dataset.Dataset, []vocab.TermID) {
		v := vocab.New()
		a, b := v.Add("a"), v.Add("b")
		objs := []dataset.Object{
			{ID: 0, Doc: vocab.DocFromTerms([]vocab.TermID{a})},
			{ID: 1, Doc: vocab.DocFromTerms([]vocab.TermID{a, b})},
		}
		return dataset.Build(objs, v), []vocab.TermID{a, b}
	}()
	model := textrel.NewModel(textrel.KO, ds)

	var c invfile.Composer
	// entry 0 subtree: term a in all docs (min 1); term b absent
	c.Add(invfile.EntryWeight{Term: terms[0], MaxW: 1, MinW: 1})
	c.EndEntry()
	// entry 1 subtree: a in some docs (min 0), b in all
	c.Add(invfile.EntryWeight{Term: terms[0], MaxW: 1, MinW: 0})
	c.Add(invfile.EntryWeight{Term: terms[1], MaxW: 1, MinW: 1})
	c.EndEntry()
	inv, err := decodeInv(c.Compose(true, 4))
	if err != nil {
		t.Fatal(err)
	}

	maxSums := MaxTextSums(model, inv, 2, terms)
	if maxSums[0] != 1 || maxSums[1] != 2 {
		t.Errorf("MaxTextSums = %v, want [1 2]", maxSums)
	}
	minSums := MinTextSums(model, inv, 2, terms)
	if minSums[0] != 1 || minSums[1] != 1 {
		t.Errorf("MinTextSums = %v, want [1 1]", minSums)
	}
	// subset of terms
	maxA := MaxTextSums(model, inv, 2, terms[:1])
	if maxA[0] != 1 || maxA[1] != 1 {
		t.Errorf("MaxTextSums(a) = %v", maxA)
	}
}

// Property on the built tree: for every node entry, MinTextSums ≤ actual
// doc sum ≤ MaxTextSums for the documents under that entry.
func TestTextSumsBracketDocSums(t *testing.T) {
	tree, ds, _ := buildSmall(t, MIRTree, textrel.LM)
	us := dataset.GenerateUsers(ds, dataset.UserConfig{NumUsers: 3, UL: 4, UW: 12, Area: 20, Seed: 29})
	checkSubtreeBounds(t, tree, us.Users[0].Doc.Terms())
}

// TestTopKWarmAllocations: with every visited node and directory in the
// decoded cache, and its queues and sum scratch taken from the pool the
// calls before it filled, a TopK allocates its result only — nothing per
// node visited, nothing for the queues — on a tree with four times the
// nodes too. Under the race detector sync.Pool drops a share of its Puts,
// so a call may pay for fresh queues; there the bound is the one that held
// before the queues were pooled.
func TestTopKWarmAllocations(t *testing.T) {
	limit := 1.0
	if raceEnabled {
		limit = 30
	}
	for _, n := range []int{800, 3200} {
		ds := dataset.GenerateFlickr(dataset.FlickrConfig{
			NumObjects: n, VocabSize: 300, MeanTags: 5, NumCluster: 8, Zipf: 1.2, Seed: 5,
		})
		scorer := textrel.NewScorer(ds, textrel.LM, 0.5)
		tree := Build(ds, scorer.Model, Config{Kind: MIRTree, Fanout: 8, DecodedCacheBytes: 64 << 20})
		us := dataset.GenerateUsers(ds, dataset.UserConfig{NumUsers: 4, UL: 3, UW: 15, Area: 20, Seed: 43})
		for ui := range us.Users {
			u := &us.Users[ui]
			run := func() {
				if _, _, err := tree.TopK(scorer, u, 10); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the cache
			// The average rounds down, so one call landing on a P whose
			// pooled scratch is not filled yet does not count.
			if allocs := testing.AllocsPerRun(20, run); allocs > limit {
				t.Errorf("%d objects, user %d: warm TopK allocates %.0f times, want ≤ %.0f", n, ui, allocs, limit)
			}
		}
	}
}
