package topk

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/invfile"
	"repro/internal/irtree"
	"repro/internal/textrel"
	"repro/internal/vocab"
)

// nodeInstance is a drawn instance of the node-bound property: a MIR-tree
// and the scorer it was built with, and users.
type nodeInstance struct {
	tree   *irtree.Tree
	kind   textrel.MeasureKind
	scorer *textrel.Scorer
	users  []dataset.User
}

// drawNodeInstance draws an instance from seed over all four measures, α
// and λ: a MIR-tree of a random fanout, with or without a decoded cache,
// over objects that include duplicates and keywordless ones, then a few
// inserted objects holding terms the model has no statistics for and a
// few deletions; users include unknown terms.
func drawNodeInstance(seed int64) (*nodeInstance, error) {
	rng := rand.New(rand.NewSource(seed))
	v := vocab.New()
	nWords := 1 + rng.Intn(10)
	for i := range nWords + 2 {
		v.Add(fmt.Sprintf("w%d", i)) // the last two are added after the build
	}
	word := func(n int) vocab.TermID { return vocab.TermID(float64(n) * math.Pow(rng.Float64(), 2)) }
	point := func() geo.Point {
		if rng.Intn(4) == 0 {
			return geo.Point{X: float64(rng.Intn(5)) * 2.5, Y: float64(rng.Intn(5)) * 2.5}
		}
		return geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
	}
	object := func(id, words int) dataset.Object {
		f := map[vocab.TermID]int32{}
		for range rng.Intn(7) {
			f[word(words)]++
		}
		return dataset.Object{ID: int32(id), Loc: point(), Doc: vocab.NewDoc(f)}
	}
	objs := make([]dataset.Object, 1+rng.Intn(80))
	for i := range objs {
		objs[i] = object(i, nWords)
		if i > 0 && rng.Intn(6) == 0 {
			objs[i].Loc, objs[i].Doc = objs[rng.Intn(i)].Loc, objs[rng.Intn(i)].Doc
		}
	}
	ds := dataset.Build(objs, v)
	ds.Stats.CollectionFreq, ds.Stats.DocFreq = ds.Stats.CollectionFreq[:nWords], ds.Stats.DocFreq[:nWords]
	lambda := []float64{rng.Float64(), textrel.DefaultLambda, 0.85, 0.1, 0, 1}[rng.Intn(6)]
	kind := textrel.MeasureKind(rng.Intn(4))
	model := textrel.NewModelWithLambda(kind, ds, lambda)
	cfg := irtree.Config{Kind: irtree.MIRTree, Fanout: []int{4, 5, 8, 16, 300}[rng.Intn(5)]}
	if rng.Intn(2) == 0 {
		cfg.DecodedCacheBytes = 1 << 20
	}
	tree := irtree.Build(ds, model, cfg)
	live := make([]int32, len(objs))
	for i := range live {
		live[i] = int32(i)
	}
	var err error
	for range rng.Intn(6) {
		if n := len(tree.Dataset().Objects); rng.Intn(3) == 0 && len(live) > 0 {
			i := rng.Intn(len(live))
			tree, err = tree.WithDelete(live[i])
			live = slices.Delete(live, i, i+1)
		} else {
			tree, err = tree.WithInsert(object(n, nWords+2))
			live = append(live, int32(n))
		}
		if err != nil {
			return nil, err
		}
	}
	in := &nodeInstance{tree: tree, kind: kind}
	for i := range 1 + rng.Intn(6) {
		var terms []vocab.TermID
		for range rng.Intn(5) {
			if rng.Intn(6) == 0 {
				terms = append(terms, vocab.UnknownTerm(rng.Intn(2)))
			} else {
				terms = append(terms, word(nWords+2))
			}
		}
		in.users = append(in.users, dataset.User{ID: int32(i), Loc: point(), Doc: vocab.DocFromTerms(terms)})
	}
	dmax := tree.Dataset().DMax(dataset.UsersMBR(in.users))
	in.scorer = &textrel.Scorer{Model: model, Alpha: rng.Float64(), DMax: dmax}
	return in, nil
}

// nodeViolations holds every node bound of in to the exact scores it
// bounds, with no slack, and returns how many comparisons it made and a
// description of each that failed. For the super-user of every user alone,
// of all users (BuildSuperUser) and of the two halves merged (Merge), it
// requires the super-user to hold each of its users — their location
// inside its MBR, their terms between its intersection and its union,
// their normalizer between its extremes — and, for every entry of every
// node and every object beneath it, Traverse's entry bounds
//
//	LB = Combine(SSMin, minSums, MaxNorm) ≤ STS(o, u) ≤ Combine(SSMax, maxSums, MinNorm) = UB
//
// for each of its users u, and RefineUser's per-user cut
// Combine(SSMax, maxSums, Norm(u)) ≥ STS(o, u) too. A user alone is what
// Tree.TopK bounds, with its terms as both sets.
func nodeViolations(in *nodeInstance) (cases int, bad []string, err error) {
	s := in.scorer
	check := func(ok bool, format string, args ...any) {
		cases++
		if !ok {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	norms := s.UserNorms(in.users)
	type group struct {
		su    SuperUser
		users []int
	}
	var groups []group
	all := make([]int, len(in.users))
	for i := range in.users {
		all[i] = i
		groups = append(groups, group{OneUser(&in.users[i], norms[i]), []int{i}})
	}
	half := len(in.users) / 2
	groups = append(groups, group{BuildSuperUser(in.users, s), all})
	if half > 0 {
		merged := Merge([]SuperUser{BuildSuperUser(in.users[:half], s), BuildSuperUser(in.users[half:], s)})
		groups = append(groups, group{merged, all})
	}
	ds := in.tree.Dataset()
	var sc invfile.SumScratch
	var walk func(id int32, gi int) ([]int32, error) // the objects beneath node id
	walk = func(id int32, gi int) ([]int32, error) {
		node, err := in.tree.ReadNode(id)
		if err != nil {
			return nil, err
		}
		g := groups[gi]
		maxSums, minSums, err := in.tree.ReadInvSums(node, g.su.Uni, g.su.Int, &sc)
		if err != nil {
			return nil, err
		}
		maxSums, minSums = slices.Clone(maxSums), slices.Clone(minSums)
		var below []int32
		for i, e := range node.Entries {
			objs := []int32{e.Child}
			if !node.Leaf {
				if objs, err = walk(e.Child, gi); err != nil {
					return nil, err
				}
			}
			below = append(below, objs...)
			smax := s.SSMax(e.Rect, g.su.MBR)
			ub := s.Combine(smax, maxSums[i], g.su.MinNorm)
			lb := s.Combine(s.SSMin(e.Rect, g.su.MBR), minSums[i], g.su.MaxNorm)
			for _, oi := range objs {
				o := &ds.Objects[oi]
				for _, ui := range g.users {
					u := &in.users[ui]
					exact := s.STS(o.Loc, o.Doc, u.Loc, u.Doc, norms[ui])
					cut := s.Combine(smax, maxSums[i], norms[ui])
					check(lb <= exact && exact <= ub, "group %d, node %d entry %d: user %d's score %v of object %d outside [LB %v, UB %v]", gi, id, i, ui, exact, oi, lb, ub)
					check(exact <= cut, "group %d, node %d entry %d: user %d's cut %v below the score %v of object %d", gi, id, i, ui, cut, exact, oi)
				}
			}
		}
		return below, nil
	}
	for gi, g := range groups {
		for _, ui := range g.users {
			u := &in.users[ui]
			check(g.su.MBR.Contains(u.Loc) && isSubset(g.su.Int, u.Doc.Terms()) && isSubset(u.Doc.Terms(), g.su.Uni) &&
				g.su.MinNorm <= norms[ui] && norms[ui] <= g.su.MaxNorm, "group %d does not hold user %d", gi, ui)
		}
		if in.tree.RootID() >= 0 {
			if _, err := walk(in.tree.RootID(), gi); err != nil {
				return cases, bad, err
			}
		}
	}
	return cases, bad, nil
}

// isSubset reports whether every term of the ascending a is in the
// ascending b.
func isSubset(a, b []vocab.TermID) bool {
	for _, t := range a {
		if _, ok := slices.BinarySearch(b, t); !ok {
			return false
		}
	}
	return true
}

// FuzzNodeBoundsDominate: on every drawn instance, every node bound holds
// for every object beneath it and every user it bounds, bit for bit
// (nodeViolations). Seeds 0, 30, 31 and 52 are instances on which sums
// that added the term floors first and then each posting's weight less
// its floor fell outside a Language Model score, and seed 0 one on which
// a kernel adding the floors after the increments did.
func FuzzNodeBoundsDominate(f *testing.F) {
	for seed := range int64(64) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		in, err := drawNodeInstance(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		_, bad, err := nodeViolations(in)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(bad) > 0 {
			t.Fatalf("seed %d (%v): %d bounds fail, first: %s", seed, in.kind, len(bad), bad[0])
		}
	})
}
