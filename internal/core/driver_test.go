package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/container"
	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/irtree"
	"repro/internal/textrel"
	"repro/internal/vocab"
)

// The per-mode selection loops Scan replaced, kept as references: each
// returns its answer and the number of locations it evaluated.

// refSelect is Algorithm 3's sequential loop (the old Select): canonical
// order, stop at the first location whose |LU_ℓ| is below the best count.
func refSelect(e *Engine, q Query, th Thresholds, method KeywordMethod) (Selection, int) {
	w := textrel.NewCandidateSet(q.Keywords)
	sc := newExactScratches(q, 1)[0]
	best, evaluated := Selection{LocIndex: -1}, 0
	for _, lc := range e.locationCandidates(q, th, w, nil) {
		if len(lc.users) < best.Count() {
			break
		}
		evaluated++
		if sel := e.evalLocation(q, th, method, w, lc, &sc); sel.Count() > best.Count() {
			best = sel
		}
	}
	best.normalize()
	return best, evaluated
}

// refTopL is the old SelectTopL: canonical order into a bounded heap, with
// direct keyword selection (no saturation shortcut), stopping once the
// heap is full and the next |LU_ℓ| is below its minimum.
func refTopL(e *Engine, q Query, th Thresholds, method KeywordMethod, l int) ([]Selection, int) {
	w := textrel.NewCandidateSet(q.Keywords)
	sc := newExactScratches(q, 1)[0]
	best, evaluated := container.NewTopK[Selection](l), 0
	for _, lc := range e.locationCandidates(q, th, w, nil) {
		if best.Full() && float64(len(lc.users)) < best.Threshold() {
			break
		}
		evaluated++
		if sel := e.selectKeywords(q, th.RSk, method, lc, w, &sc); sel.Count() > 0 {
			best.Offer(sel, float64(sel.Count()))
		}
	}
	out := best.PopAscending()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count() != out[j].Count() {
			return out[i].Count() > out[j].Count()
		}
		return out[i].LocIndex < out[j].LocIndex
	})
	for i := range out {
		out[i].normalize()
	}
	return out, evaluated
}

// refBaseline is the old Baseline: the flat location × combination scan
// over every user, keeping the first strictly greater count.
func refBaseline(e *Engine, q Query, th Thresholds) Selection {
	best := Selection{LocIndex: -1}
	for li := range q.Locations {
		container.Combinations(q.Keywords, q.WS, func(combo []vocab.TermID) bool {
			add := append([]vocab.TermID(nil), combo...)
			doc := q.OxDoc.MergeTerms(add)
			var users []int32
			for ui := range e.Users {
				if e.sts(q, li, doc, ui) >= th.RSk[ui] {
					users = append(users, e.Users[ui].ID)
				}
			}
			if len(users) > best.Count() {
				best = Selection{LocIndex: li, Location: q.Locations[li], Keywords: add, Users: users}
			}
			return true
		})
	}
	best.normalize()
	return best
}

// randomFixture draws a small instance: dataset shape, cohort spread and
// candidate locations all vary with rng.
func randomFixture(t testing.TB, measure textrel.MeasureKind, rng *rand.Rand, seed int64) *fixture {
	t.Helper()
	ds := dataset.GenerateFlickr(dataset.FlickrConfig{
		NumObjects: 80 + rng.Intn(300), VocabSize: 30 + rng.Intn(200), MeanTags: 2 + 4*rng.Float64(),
		NumCluster: 1 + rng.Intn(6), Zipf: 1.1 + rng.Float64(), Seed: seed,
	})
	us := dataset.GenerateUsers(ds, dataset.UserConfig{
		NumUsers: 6 + rng.Intn(40), UL: 1 + rng.Intn(3), UW: 4 + rng.Intn(12), Area: 0.5 + 20*rng.Float64(), Seed: seed + 1,
	})
	locs := dataset.CandidateLocations(us.Region, 2+rng.Intn(15), 2*rng.Float64(), seed+2)
	scorer := textrel.NewScorer(ds, measure, 0.1+0.8*rng.Float64(), dataset.UsersMBR(us.Users), geo.MBR(locs))
	tree := irtree.Build(ds, scorer.Model, irtree.Config{Kind: irtree.MIRTree, Fanout: 4 + rng.Intn(12)})
	return &fixture{ds: ds, us: us, scorer: scorer, tree: tree, engine: NewEngine(tree, scorer, us.Users), locs: locs}
}

// TestDriverMatchesReferenceLoops: on generated datasets and cohorts under
// all four measures, every mode × method × worker count × shard split ×
// forwarded floor of Scan reduces to the answer of the loop it replaced,
// and with one worker and no split it evaluates exactly the locations that
// loop evaluated.
func TestDriverMatchesReferenceLoops(t *testing.T) {
	measures := []textrel.MeasureKind{textrel.LM, textrel.TFIDF, textrel.KO, textrel.BM25}
	for mi, measure := range measures {
		for trial := 0; trial < 8; trial++ {
			seed := int64(3000 + 10*mi + trial)
			rng := rand.New(rand.NewSource(seed))
			f := randomFixture(t, measure, rng, seed)
			q := f.query(0, 1+rng.Intn(8))
			if len(q.Keywords) > 6 {
				q.Keywords = q.Keywords[:6]
			}
			q.WS = rng.Intn(min(3, len(q.Keywords)+1))
			if rng.Intn(2) == 0 {
				q.OxDoc = vocab.DocFromTerms(q.Keywords[:1])
			}
			th := f.prepare(t, q.K)
			l := 1 + rng.Intn(3)
			name := fmt.Sprintf("%s/seed=%d", measure, seed)

			for _, method := range []KeywordMethod{KeywordsExact, KeywordsApprox} {
				wantBest, nBest := refSelect(f.engine, q, th, method)
				wantTopL, nTopL := refTopL(f.engine, q, th, method, l)
				for _, workers := range []int{1, 2, 4} {
					label := fmt.Sprintf("%s %v workers=%d", name, method, workers)
					cands, st, err := f.engine.Scan(q, th, ScanSpec{Method: method, Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					if got := Best(cands); !reflect.DeepEqual(got, wantBest) {
						t.Fatalf("%s best: %+v, reference %+v", label, got, wantBest)
					}
					if workers == 1 && st.Evaluated != nBest {
						t.Fatalf("%s best: evaluated %d locations, reference %d", label, st.Evaluated, nBest)
					}
					cands, st, err = f.engine.Scan(q, th, ScanSpec{Method: method, Mode: ScanTopL, L: l, Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					if got := TopL(cands, l); !reflect.DeepEqual(got, wantTopL) {
						t.Fatalf("%s top-%d: %+v, reference %+v", label, l, got, wantTopL)
					}
					if workers == 1 && st.Evaluated != nTopL {
						t.Fatalf("%s top-%d: evaluated %d locations, reference %d", label, l, st.Evaluated, nTopL)
					}
					for _, n := range []int{1, 2, 3} {
						parts := splitLocations(len(q.Locations), n)
						for _, floor := range []int{0, wantBest.Count()} {
							spec := ScanSpec{Method: method, Floor: floor, Workers: workers}
							if merged, _ := scatter(t, f.engine, q, th, spec, parts); !reflect.DeepEqual(Best(canonical(merged)), wantBest) {
								t.Fatalf("%s best split %d floor %d: replay differs", label, n, floor)
							}
							spec.Mode, spec.L = ScanTopL, l
							if merged, _ := scatter(t, f.engine, q, th, spec, parts); !reflect.DeepEqual(TopL(canonical(merged), l), wantTopL) {
								t.Fatalf("%s top-%d split %d floor %d: replay differs", label, l, n, floor)
							}
						}
					}
				}
			}

			wantB := refBaseline(f.engine, q, th)
			for _, workers := range []int{1, 2, 4} {
				cands, st, err := f.engine.Scan(q, th, ScanSpec{Mode: ScanExhaustive, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if got := Best(cands); !reflect.DeepEqual(got, wantB) {
					t.Fatalf("%s exhaustive workers=%d: %+v, reference %+v", name, workers, got, wantB)
				}
				if st.Evaluated != len(q.Locations) {
					t.Fatalf("%s exhaustive: evaluated %d of %d locations", name, st.Evaluated, len(q.Locations))
				}
				for _, n := range []int{2, 3} {
					spec := ScanSpec{Mode: ScanExhaustive, Floor: wantB.Count(), Workers: workers}
					if merged, _ := scatter(t, f.engine, q, th, spec, splitLocations(len(q.Locations), n)); !reflect.DeepEqual(Best(byLocation(merged)), wantB) {
						t.Fatalf("%s exhaustive workers=%d split %d: replay differs", name, workers, n)
					}
				}
			}
		}
	}
}
