package irtree

import (
	"testing"

	"repro/internal/dataset"
)

// Deleting everything must leave an empty tree, and the id space must
// keep extending past dead slots on re-insert.
func TestDeleteToEmptyAndReinsert(t *testing.T) {
	tree, rest, _, _ := insertFixture(t, 60, 101)
	for _, o := range rest {
		nt, err := tree.With(-1, &o)
		if err != nil {
			t.Fatal(err)
		}
		tree = nt
	}
	n := len(tree.Dataset().Objects)
	for id := 0; id < n; id++ {
		nt, err := tree.With(int32(id), nil)
		if err != nil {
			t.Fatalf("delete %d: %v", id, err)
		}
		tree = nt
	}
	if tree.RootID() >= 0 || tree.Height() != 0 {
		t.Fatalf("empty tree has root %d height %d", tree.RootID(), tree.Height())
	}
	if _, err := tree.With(0, nil); err == nil {
		t.Fatal("double delete should fail")
	}

	o := tree.Dataset().Objects[0]
	o.ID = int32(len(tree.Dataset().Objects))
	nt, err := tree.With(-1, &o)
	if err != nil {
		t.Fatal(err)
	}
	tree = nt
	root, err := tree.ReadNode(tree.RootID())
	if err != nil {
		t.Fatal(err)
	}
	if root.Count != 1 {
		t.Fatalf("count = %d after re-insert", root.Count)
	}
}

// A snapshot taken before a mutation must keep answering from its own
// epoch: the old tree still sees the deleted object, the new one does not,
// and epochs advance by exactly one per publication (a With that deletes
// and inserts counts as one).
func TestSnapshotIsolationAndEpochs(t *testing.T) {
	tree, rest, scorer, full := insertFixture(t, 200, 111)
	if tree.Epoch() != 0 {
		t.Fatalf("fresh build epoch = %d", tree.Epoch())
	}
	old := tree
	nt, err := tree.With(-1, &rest[0])
	if err != nil {
		t.Fatal(err)
	}
	if nt.Epoch() != 1 || old.Epoch() != 0 {
		t.Fatalf("epochs %d / %d", nt.Epoch(), old.Epoch())
	}
	if len(old.Dataset().Objects)+1 != len(nt.Dataset().Objects) {
		t.Fatal("old snapshot's dataset grew")
	}

	// Replace object 0 with a fresh copy at a new id: one epoch.
	repl := nt.Dataset().Objects[0]
	repl.ID = int32(len(nt.Dataset().Objects))
	nt2, err := nt.With(0, &repl)
	if err != nil {
		t.Fatal(err)
	}
	if nt2.Epoch() != 2 {
		t.Fatalf("replace should publish one epoch, got %d", nt2.Epoch())
	}

	// The pre-delete snapshot still reaches object 0; the successor does
	// not (but reaches the replacement with identical scores).
	us := dataset.GenerateUsers(full, dataset.UserConfig{NumUsers: 6, UL: 3, UW: 10, Area: 20, Seed: 112})
	for ui := range us.Users {
		u := &us.Users[ui]
		gotOld, _, err := nt.TopK(scorer, u, 3)
		if err != nil {
			t.Fatal(err)
		}
		wantOld := bruteTopK(nt.Dataset(), scorer, u, 3)
		for i := range wantOld {
			if gotOld[i].Score != wantOld[i].Score {
				t.Fatalf("old snapshot diverged at rank %d", i)
			}
		}
		gotNew, _, err := nt2.TopK(scorer, u, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i := range wantOld {
			if gotNew[i].Score != wantOld[i].Score {
				t.Fatalf("replace changed scores at rank %d (same doc at a new id)", i)
			}
		}
	}
}
