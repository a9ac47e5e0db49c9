package core

import (
	"testing"

	"repro/internal/miurtree"
	"repro/internal/textrel"
)

func TestUserIndexedSometimesPrunes(t *testing.T) {
	// Sparse users spread wide with distant candidate locations give the
	// hierarchy something to prune. Aggregate over seeds: at least one run
	// should avoid resolving every user.
	anyPruned := false
	for seed := int64(90); seed < 96; seed++ {
		f := newFixture(t, textrel.LM, 0.9, 600, 120, 3, seed)
		q := f.query(2, 3)
		ut := miurtree.Build(f.us.Users, f.scorer, 4)
		engine := NewEngine(f.tree, f.scorer, f.us.Users)
		_, stats, err := engine.SelectUserIndexed(q, KeywordsExact, ut)
		if err != nil {
			t.Fatal(err)
		}
		if stats.ResolvedUsers < stats.TotalUsers {
			anyPruned = true
		}
	}
	if !anyPruned {
		t.Log("note: no pruning observed on these seeds (counts remain correct)")
	}
}

func TestUserIndexedValidation(t *testing.T) {
	f := newFixture(t, textrel.KO, 0.5, 200, 20, 3, 123)
	ut := miurtree.Build(f.us.Users, f.scorer, 8)
	engine := NewEngine(f.tree, f.scorer, f.us.Users)
	q := f.query(2, 5)
	q.K = 0
	if _, _, err := engine.SelectUserIndexed(q, KeywordsExact, ut); err == nil {
		t.Error("invalid query should be rejected")
	}
}

func TestUserIndexedEmptyUsers(t *testing.T) {
	f := newFixture(t, textrel.KO, 0.5, 200, 20, 3, 321)
	ut := miurtree.Build(nil, f.scorer, 8)
	engine := NewEngine(f.tree, f.scorer, nil)
	sel, stats, err := engine.SelectUserIndexed(f.query(1, 5), KeywordsExact, ut)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Count() != 0 || stats.ResolvedUsers != 0 {
		t.Errorf("empty users: sel=%d resolved=%d", sel.Count(), stats.ResolvedUsers)
	}
}

func TestPrunedPercent(t *testing.T) {
	s := UserIndexStats{TotalUsers: 200, ResolvedUsers: 180}
	if got := s.PrunedPercent(); got != 10 {
		t.Errorf("PrunedPercent = %v, want 10", got)
	}
	if got := (UserIndexStats{}).PrunedPercent(); got != 0 {
		t.Errorf("zero-user PrunedPercent = %v", got)
	}
}
