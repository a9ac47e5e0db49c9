package core

import (
	"fmt"
	"testing"

	"repro/internal/container"
	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/irtree"
	"repro/internal/miurtree"
	"repro/internal/testgen"
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

// drawEntryInstance builds from draw seed an engine over a MIR-tree, a
// MIUR-tree over its users, both at the draw's fanout, and the first
// query.
func drawEntryInstance(seed int64) *entryInstance {
	d := testgen.Draw(seed)
	ds, q, kind := testgen.Dataset(d), d.Queries[0], textrel.MeasureKind(d.Measure)
	scorer := &textrel.Scorer{Model: textrel.NewModelWithLambda(kind, ds, d.Lambda), Alpha: d.Alpha,
		DMax: ds.DMax(dataset.UsersMBR(d.Users), geo.MBR(q.Locations))}
	tree := irtree.Build(ds, scorer.Model, irtree.Config{Kind: irtree.MIRTree, Fanout: d.Fanout})
	return &entryInstance{e: NewEngine(tree, scorer, d.Users), kind: kind, ut: miurtree.Build(d.Users, scorer, d.Fanout),
		q: Query{OxDoc: q.OxDoc, Locations: q.Locations, Keywords: testgen.Candidates(q), WS: q.WS, K: d.K}}
}

// entryViolations holds phase 2's bounds of in to the exact scores they
// bound, with no slack, and returns a description of each that failed:
// for the cohort's super-user and every MIUR-tree entry, and each user u
// beneath it,
//
//   - ubGroup, UBL(ℓ,us), against u's exact score of ox.d ∪ c at ℓ for
//     every location ℓ and every c ⊆ W with |c| ≤ ws, as is ubUser,
//     UBL(ℓ,u);
//   - lbGroup against u's exact score of every object and of ox.d at
//     every location.
func entryViolations(in *entryInstance) (bad []string, err error) {
	e, q := in.e, in.q
	w := textrel.NewCandidateSet(q.Keywords)
	check := func(ok bool, format string, args ...any) {
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
		return nil, err
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
	return bad, nil
}

// FuzzEntryBoundsDominate: on every drawn instance, every phase-2 bound
// holds for each exact score it bounds, bit for bit (entryViolations). The
// seeds past 64 are instances on which a MIUR-tree entry's UBL(ℓ,us), its
// gains added unguarded after the sum, fell below a user's exact score.
func FuzzEntryBoundsDominate(f *testing.F) {
	for seed := range int64(64) {
		f.Add(seed)
	}
	for _, seed := range []int64{5125, 5821, 8433} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		in := drawEntryInstance(seed)
		bad, err := entryViolations(in)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(bad) > 0 {
			t.Fatalf("seed %d (%v): %d bounds fail, first: %s", seed, in.kind, len(bad), bad[0])
		}
	})
}
