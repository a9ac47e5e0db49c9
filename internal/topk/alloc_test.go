package topk

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/irtree"
	"repro/internal/textrel"
)

// TestRefineUserAllocations pins the per-user cost of the joint
// refinement: with a warm per-worker scratch, refining one user must
// allocate only the returned Results slice itself (one allocation — it is
// handed to the caller, so it cannot be pooled).
func TestRefineUserAllocations(t *testing.T) {
	tree, scorer, us := setup(t, textrel.LM, 400, 30)
	su := BuildSuperUser(us.Users, scorer)
	tr, err := Traverse(tree, scorer, su, 5, -math.MaxFloat64, &TraverseScratch{})
	if err != nil {
		t.Fatal(err)
	}
	aux := NewRefineAux(tr)
	norms := scorer.UserNorms(us.Users)
	ds := tree.Dataset()

	sc := &RefineScratch{}
	RefineUser(ds, scorer, &us.Users[0], norms[0], tr, aux, 5, -math.MaxFloat64, sc)
	allocs := testing.AllocsPerRun(100, func() {
		for ui := range us.Users {
			RefineUser(ds, scorer, &us.Users[ui], norms[ui], tr, aux, 5, -math.MaxFloat64, sc)
		}
	})
	perUser := allocs / float64(len(us.Users))
	if perUser > 1 {
		t.Fatalf("refinement allocates %.2f times per user, want <= 1 (the Results slice)", perUser)
	}
}

// TestTraverseAllocations pins the per-traversal cost of Algorithm 1
// in the warm serving configuration (decoded cache + reused scratch):
// node and posting decodes are cache hits and the queues and per-node sum
// buffers are reused, so the only allocations left are the returned
// result's own slices — a small constant independent of the number of
// nodes visited.
func TestTraverseAllocations(t *testing.T) {
	cold, scorer, us := setup(t, textrel.LM, 400, 30)
	tree := irtree.Build(cold.Dataset(), scorer.Model,
		irtree.Config{Kind: irtree.MIRTree, Fanout: 16, DecodedCacheBytes: 8 << 20})
	su := BuildSuperUser(us.Users, scorer)
	sc := &TraverseScratch{}
	if _, err := Traverse(tree, scorer, su, 5, -math.MaxFloat64, sc); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := Traverse(tree, scorer, su, 5, -math.MaxFloat64, sc); err != nil {
			t.Fatal(err)
		}
	})
	// result struct + LO slice + RO appends: a handful of allocations per
	// traversal, regardless of nodes visited (hundreds at this scale).
	if allocs > 16 {
		t.Fatalf("traversal allocates %.1f times, want a small constant (<= 16)", allocs)
	}
}

// TestJointTopKWarmAllocations pins phase 1's per-request allocation in
// the warm serving configuration: a second JointTopK of the same shape
// reads every node and directory from the decoded cache and takes its
// queues from the pools the first filled, so it allocates about what it builds for its answer — the
// candidate list, its refinement index, the per-user results — and not
// the queues, which grow by doubling past the candidate count.
func TestJointTopKWarmAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of Puts under the race detector")
	}
	cold, scorer, us := setup(t, textrel.LM, 4000, 16)
	tree := irtree.Build(cold.Dataset(), scorer.Model,
		irtree.Config{Kind: irtree.MIRTree, Fanout: 16, DecodedCacheBytes: 64 << 20})
	tr, err := Traverse(tree, scorer, BuildSuperUser(us.Users, scorer), 10, -math.MaxFloat64, &TraverseScratch{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		run := func() {
			if _, err := JointTopK(tree, scorer, us.Users, 10, workers, 1, nil); err != nil {
				t.Fatal(err)
			}
		}
		run()
		// sync.Pool keeps a scratch per P, and a call may land on a P
		// whose scratch it has not filled yet: take the cheapest of a
		// few calls, which without the pools would all pay for queues.
		least := uint64(math.MaxUint64)
		for range 4 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		// RO, then its two suffix-maximum slices: 56 bytes a candidate.
		t.Logf("workers %d: %d bytes for %d candidates", workers, least, len(tr.RO))
		if budget := uint64(56*len(tr.RO)) + 64<<10; least > budget {
			t.Errorf("workers %d: warm JointTopK allocates %d bytes for %d candidates, want ≤ %d", workers, least, len(tr.RO), budget)
		}
	}
}
