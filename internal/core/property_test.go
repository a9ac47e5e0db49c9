package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/container"
	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/irtree"
	"repro/internal/miurtree"
	"repro/internal/textrel"
	"repro/internal/topk"
	"repro/internal/vocab"
)

// entryInstance is a drawn instance of the phase-2 bound property: an
// engine, a MIUR-tree over its users and a query.
type entryInstance struct {
	e    *Engine
	kind textrel.MeasureKind
	ut   *miurtree.Tree
	q    Query
}

// drawEntryInstance draws an instance from seed over all four measures, α
// and λ: objects that include duplicates and keywordless ones, users and
// candidate keywords that include unknown terms, and a MIUR-tree of a
// random fanout.
func drawEntryInstance(seed int64) *entryInstance {
	rng := rand.New(rand.NewSource(seed))
	v := vocab.New()
	nWords := 1 + rng.Intn(10)
	for i := range nWords {
		v.Add(fmt.Sprintf("w%d", i))
	}
	term := func() vocab.TermID {
		if rng.Intn(6) == 0 {
			return vocab.UnknownTerm(rng.Intn(2))
		}
		return vocab.TermID(float64(nWords) * math.Pow(rng.Float64(), 2))
	}
	terms := func(n int) []vocab.TermID {
		out := make([]vocab.TermID, rng.Intn(n+1))
		for i := range out {
			out[i] = term()
		}
		return out
	}
	point := func() geo.Point {
		if rng.Intn(4) == 0 {
			return geo.Point{X: float64(rng.Intn(5)) * 2.5, Y: float64(rng.Intn(5)) * 2.5}
		}
		return geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
	}
	objs := make([]dataset.Object, 1+rng.Intn(40))
	for i := range objs {
		f := map[vocab.TermID]int32{}
		for _, t := range terms(6) {
			f[max(t, 0)]++ // objects hold corpus terms
		}
		objs[i] = dataset.Object{ID: int32(i), Loc: point(), Doc: vocab.NewDoc(f)}
		if i > 0 && rng.Intn(6) == 0 {
			objs[i].Loc, objs[i].Doc = objs[rng.Intn(i)].Loc, objs[rng.Intn(i)].Doc
		}
	}
	ds := dataset.Build(objs, v)
	kind := textrel.MeasureKind(rng.Intn(4))
	lambda := []float64{rng.Float64(), textrel.DefaultLambda, 0.85, 0.1, 0, 1}[rng.Intn(6)]
	users := make([]dataset.User, 1+rng.Intn(12))
	for i := range users {
		users[i] = dataset.User{ID: int32(i), Loc: point(), Doc: vocab.DocFromTerms(terms(4))}
	}
	q := Query{OxDoc: vocab.DocFromTerms(terms(3)), WS: 1 + rng.Intn(4), K: 1}
	for range 1 + rng.Intn(4) {
		q.Locations = append(q.Locations, point())
	}
	q.Keywords = terms(6)
	slices.Sort(q.Keywords)
	q.Keywords = slices.Compact(q.Keywords)
	scorer := &textrel.Scorer{Model: textrel.NewModelWithLambda(kind, ds, lambda), Alpha: rng.Float64(),
		DMax: ds.DMax(dataset.UsersMBR(users), geo.MBR(q.Locations))}
	tree := irtree.Build(ds, scorer.Model, irtree.Config{Kind: irtree.MIRTree, Fanout: 4})
	return &entryInstance{e: NewEngine(tree, scorer, users), kind: kind,
		ut: miurtree.Build(users, scorer, []int{4, 5, 8}[rng.Intn(3)]), q: q}
}

// entryViolations holds phase 2's bounds of in to the exact scores they
// bound, with no slack, and returns how many comparisons it made and a
// description of each that failed: for the cohort's super-user and every
// MIUR-tree entry, and each user u beneath it,
//
//   - ubGroup, UBL(ℓ,us), against u's exact score of ox.d ∪ c at ℓ for
//     every location ℓ and every c ⊆ W with |c| ≤ ws, as is ubUser,
//     UBL(ℓ,u);
//   - lbGroup against u's exact score of every object and of ox.d at
//     every location.
func entryViolations(in *entryInstance) (cases int, bad []string, err error) {
	e, q := in.e, in.q
	w := textrel.NewCandidateSet(q.Keywords)
	check := func(ok bool, format string, args ...any) {
		cases++
		if !ok {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	var docs []vocab.Doc // ox.d ∪ c for every admissible c
	for size := 0; size <= min(q.WS, len(q.Keywords)); size++ {
		container.Combinations(q.Keywords, size, func(c []vocab.TermID) bool {
			docs = append(docs, q.OxDoc.MergeTerms(c))
			return true
		})
	}
	type entry struct {
		name  string
		su    topk.SuperUser
		users []int
	}
	all := make([]int, len(e.Users))
	for i := range all {
		all[i] = i
	}
	entries := []entry{{"the cohort", e.su, all}}
	var walk func(id int32) ([]int, error) // the users beneath node id
	walk = func(id int32) ([]int, error) {
		node, err := in.ut.ReadNode(id)
		if err != nil {
			return nil, err
		}
		var below []int
		for i, en := range node.Entries {
			users := []int{int(en.Child)}
			if !node.Leaf {
				if users, err = walk(en.Child); err != nil {
					return nil, err
				}
			}
			below = append(below, users...)
			entries = append(entries, entry{fmt.Sprintf("node %d entry %d", id, i), en.SuperUser, users})
		}
		return below, nil
	}
	if _, err := walk(in.ut.RootID()); err != nil {
		return 0, nil, err
	}
	objs := e.Tree.Dataset().Objects
	for _, en := range entries {
		uni := vocab.DocFromTerms(en.su.Uni)
		for li, loc := range q.Locations {
			ub := e.ubGroup(q, li, en.su, uni, w)
			lbOx := e.lbGroup(loc, q.OxDoc, en.su)
			for _, ui := range en.users {
				for di, doc := range docs {
					exact := e.sts(q, li, doc, ui)
					check(exact <= ub, "%s: ubGroup %v below user %d's score %v of document %d at location %d", en.name, ub, ui, exact, di, li)
				}
				check(lbOx <= e.sts(q, li, q.OxDoc, ui), "%s: lbGroup %v of ox.d at location %d above user %d's score", en.name, lbOx, li, ui)
			}
		}
		for oi := range objs {
			o := &objs[oi]
			lb := e.lbGroup(o.Loc, o.Doc, en.su)
			for _, ui := range en.users {
				u := &e.Users[ui]
				exact := e.Scorer.STS(o.Loc, o.Doc, u.Loc, u.Doc, e.norms[ui])
				check(lb <= exact, "%s: lbGroup %v above user %d's score %v of object %d", en.name, lb, ui, exact, oi)
			}
		}
	}
	for ui := range e.Users {
		for li := range q.Locations {
			ub := e.ubUser(q, li, ui, w)
			for di, doc := range docs {
				exact := e.sts(q, li, doc, ui)
				check(exact <= ub, "ubUser %v below user %d's score %v of document %d at location %d", ub, ui, exact, di, li)
			}
		}
	}
	return cases, bad, nil
}

// FuzzEntryBoundsDominate: on every drawn instance, every phase-2 bound
// holds for each exact score it bounds, bit for bit (entryViolations). The
// seeds past 64 are instances on which a MIUR-tree entry's UBL(ℓ,us), its
// gains added unguarded after the sum, fell below a user's exact score.
func FuzzEntryBoundsDominate(f *testing.F) {
	for seed := range int64(64) {
		f.Add(seed)
	}
	for _, seed := range []int64{147, 256, 257} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		in := drawEntryInstance(seed)
		_, bad, err := entryViolations(in)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(bad) > 0 {
			t.Fatalf("seed %d (%v): %d bounds fail, first: %s", seed, in.kind, len(bad), bad[0])
		}
	})
}
