package miurtree

import (
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/textrel"
	"repro/internal/topk"
	"repro/internal/vocab"
)

func buildFixture(t testing.TB, nUsers int) (*Tree, []dataset.User, *textrel.Scorer) {
	t.Helper()
	ds := dataset.GenerateFlickr(dataset.FlickrConfig{
		NumObjects: 600, VocabSize: 200, MeanTags: 5, NumCluster: 6, Zipf: 1.2, Seed: 3,
	})
	us := dataset.GenerateUsers(ds, dataset.UserConfig{NumUsers: nUsers, UL: 3, UW: 15, Area: 20, Seed: 4})
	scorer := textrel.NewScorer(ds, textrel.LM, 0.5, dataset.UsersMBR(us.Users))
	return Build(us.Users, scorer, 8), us.Users, scorer
}

func TestBuildRootAggregates(t *testing.T) {
	tree, users, scorer := buildFixture(t, 200)
	root := tree.RootEntry
	if root.NumUsers != len(users) {
		t.Errorf("root count = %d, want %d", root.NumUsers, len(users))
	}
	if root.MBR != dataset.UsersMBR(users) {
		t.Errorf("root rect = %v, want users MBR", root.MBR)
	}
	// Union must contain every user term; intersection must be contained in
	// every user's terms; norms must bracket every user norm.
	uniSet := map[vocab.TermID]bool{}
	for _, tm := range root.Uni {
		uniSet[tm] = true
	}
	for _, u := range users {
		norm := scorer.Norm(u.Doc)
		if norm < root.MinNorm || norm > root.MaxNorm {
			t.Fatalf("user norm %v outside [%v,%v]", norm, root.MinNorm, root.MaxNorm)
		}
		for _, tm := range u.Doc.Terms() {
			if !uniSet[tm] {
				t.Fatalf("user term %d missing from root union", tm)
			}
		}
		for _, tm := range root.Int {
			if !u.Doc.Has(tm) {
				t.Fatalf("intersection term %d not in user %d", tm, u.ID)
			}
		}
	}
}

// Every node entry's aggregates must be well-formed (ascending term sets,
// MinNorm <= MaxNorm) and consistent with the users stored beneath it —
// the invariant Section 7's pruning depends on.
func TestEntryAggregatesConsistent(t *testing.T) {
	tree, users, scorer := buildFixture(t, 300)

	var usersUnder func(ref int32, isUser bool) []int32
	usersUnder = func(ref int32, isUser bool) []int32 {
		if isUser {
			return []int32{ref}
		}
		n, err := tree.ReadNode(ref)
		if err != nil {
			t.Fatal(err)
		}
		var out []int32
		for _, e := range n.Entries {
			out = append(out, usersUnder(e.Child, n.Leaf)...)
		}
		return out
	}

	var check func(id int32)
	check = func(id int32) {
		n, err := tree.ReadNode(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range n.Entries {
			uis := usersUnder(e.Child, n.Leaf)
			if len(uis) != e.NumUsers {
				t.Fatalf("entry count %d, %d users reachable", e.NumUsers, len(uis))
			}
			for i := 1; i < len(e.Uni); i++ {
				if e.Uni[i-1] >= e.Uni[i] {
					t.Fatalf("entry union terms not strictly ascending: %v", e.Uni)
				}
			}
			for i := 1; i < len(e.Int); i++ {
				if e.Int[i-1] >= e.Int[i] {
					t.Fatalf("entry intersection terms not strictly ascending: %v", e.Int)
				}
			}
			if e.MinNorm > e.MaxNorm {
				t.Fatalf("entry min norm %v > max norm %v", e.MinNorm, e.MaxNorm)
			}
			uniSet := map[vocab.TermID]bool{}
			for _, tm := range e.Uni {
				uniSet[tm] = true
			}
			for _, ui := range uis {
				u := &users[ui]
				if !e.MBR.Contains(u.Loc) {
					t.Fatalf("user %d outside entry rect", ui)
				}
				norm := scorer.Norm(u.Doc)
				if norm < e.MinNorm || norm > e.MaxNorm {
					t.Fatalf("user norm %v outside entry [%v,%v]", norm, e.MinNorm, e.MaxNorm)
				}
				for _, tm := range u.Doc.Terms() {
					if !uniSet[tm] {
						t.Fatalf("user term %d missing from entry union", tm)
					}
				}
				for _, tm := range e.Int {
					if !u.Doc.Has(tm) {
						t.Fatalf("intersection term %d missing from user %d", tm, ui)
					}
				}
			}
			if !n.Leaf {
				check(e.Child)
			}
		}
	}
	check(tree.RootID())
}

// Every entry, the root's included, stores exactly the super-user the
// joint top-k builds for the users beneath it: one group aggregate.
func TestEntriesAreSuperUsers(t *testing.T) {
	tree, users, scorer := buildFixture(t, 300)
	var walk func(e NodeEntry, leaf bool) []dataset.User
	walk = func(e NodeEntry, leaf bool) []dataset.User {
		var under []dataset.User
		if leaf {
			under = []dataset.User{users[e.Child]}
		} else {
			n, err := tree.ReadNode(e.Child)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range n.Entries {
				under = append(under, walk(c, n.Leaf)...)
			}
		}
		if want := topk.BuildSuperUser(under, scorer); !reflect.DeepEqual(e.SuperUser, want) {
			t.Fatalf("entry over %d users = %+v, want %+v", len(under), e.SuperUser, want)
		}
		return under
	}
	if got := walk(tree.RootEntry, false); len(got) != len(users) {
		t.Fatalf("root covers %d users, want %d", len(got), len(users))
	}
}

func TestReadNodeChargesIO(t *testing.T) {
	tree, _, _ := buildFixture(t, 100)
	tree.IO().Reset()
	if _, err := tree.ReadNode(tree.RootID()); err != nil {
		t.Fatal(err)
	}
	if got := tree.IO().NodeVisits(); got != 1 {
		t.Errorf("node visits = %d, want 1", got)
	}
}

func TestReadNodeUnknown(t *testing.T) {
	tree, _, _ := buildFixture(t, 50)
	for _, id := range []int32{-1, 12345} {
		if _, err := tree.ReadNode(id); err == nil {
			t.Errorf("ReadNode(%d) should error", id)
		}
	}
}

func TestEmptyUsers(t *testing.T) {
	ds := dataset.GenerateFlickr(dataset.DefaultFlickrConfig(200))
	scorer := textrel.NewScorer(ds, textrel.KO, 0.5)
	tree := Build(nil, scorer, 8)
	if tree.RootID() >= 0 {
		t.Error("empty tree should have no root")
	}
	if tree.RootEntry.NumUsers != 0 {
		t.Error("empty root entry count")
	}
}

func TestSingleUser(t *testing.T) {
	ds := dataset.GenerateFlickr(dataset.DefaultFlickrConfig(200))
	us := dataset.GenerateUsers(ds, dataset.UserConfig{NumUsers: 1, UL: 2, UW: 5, Area: 10, Seed: 9})
	scorer := textrel.NewScorer(ds, textrel.KO, 0.5)
	tree := Build(us.Users, scorer, 8)
	if tree.RootEntry.NumUsers != 1 {
		t.Errorf("count = %d", tree.RootEntry.NumUsers)
	}
	root, err := tree.ReadNode(tree.RootID())
	if err != nil {
		t.Fatal(err)
	}
	if !root.Leaf || len(root.Entries) != 1 {
		t.Errorf("single-user tree: leaf=%v entries=%d", root.Leaf, len(root.Entries))
	}
}
