package topk

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/invfile"
	"repro/internal/irtree"
	"repro/internal/testgen"
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

// drawNodeInstance builds from draw seed a MIR-tree, with the draw's
// write history applied, and the scorer it was built with.
func drawNodeInstance(seed int64) (*nodeInstance, error) {
	d := testgen.Draw(seed)
	ds := testgen.Dataset(d)
	model := textrel.NewModelWithLambda(textrel.MeasureKind(d.Measure), ds, d.Lambda)
	cfg := irtree.Config{Kind: irtree.MIRTree, Fanout: d.Fanout}
	if d.Cached {
		cfg.DecodedCacheBytes = 1 << 20
	}
	tree := irtree.Build(ds, model, cfg)
	if err := testgen.Replay(d, func(del int32, o *dataset.Object) (err error) {
		tree, err = tree.With(del, o)
		return err
	}); err != nil {
		return nil, err
	}
	return &nodeInstance{tree: tree, kind: textrel.MeasureKind(d.Measure), users: d.Users,
		scorer: &textrel.Scorer{Model: model, Alpha: d.Alpha, DMax: tree.Dataset().DMax(dataset.UsersMBR(d.Users))}}, nil
}

// nodeViolations holds every node bound of in to the exact scores it
// bounds, with no slack, and returns a description of each that failed.
// For the super-user of every user alone, of all users (BuildSuperUser)
// and of the two halves merged (Merge), it requires the super-user to
// hold each of its users — their location inside its MBR, their terms
// between its intersection and its union, their normalizer between its
// extremes — and, for every entry of every node and every object beneath
// it, Traverse's entry bounds
//
//	LB = Combine(SSMin, minSums, MaxNorm) ≤ STS(o, u) ≤ Combine(SSMax, maxSums, MinNorm) = UB
//
// for each of its users u, and RefineUser's per-user cut
// Combine(SSMax, maxSums, Norm(u)) ≥ STS(o, u) too. A user alone is what
// Tree.TopK bounds, with its terms as both sets.
func nodeViolations(in *nodeInstance) (bad []string, err error) {
	s := in.scorer
	check := func(ok bool, format string, args ...any) {
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
				return bad, err
			}
		}
	}
	return bad, nil
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
// (nodeViolations). Seeds 0, 8, 28, 44 and 52 are instances on which a
// kernel adding the floors after the increments fell outside a Language
// Model score.
func FuzzNodeBoundsDominate(f *testing.F) {
	for seed := range int64(64) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		in, err := drawNodeInstance(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		bad, err := nodeViolations(in)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(bad) > 0 {
			t.Fatalf("seed %d (%v): %d bounds fail, first: %s", seed, in.kind, len(bad), bad[0])
		}
	})
}
