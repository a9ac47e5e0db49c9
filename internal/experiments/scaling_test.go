package experiments

import (
	"strings"
	"testing"
)

func TestFigScaling(t *testing.T) {
	cfg := Quick()
	cfg.NumObjects = 800
	cfg.NumUsers = 60
	cfg.Runs = 1
	tables, err := FigScaling(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Fatalf("got %d tables, want 1", len(tables))
	}
	checkPinned(t, tables[0])
	s := tables[0].String()
	if !strings.Contains(s, "workers") || !strings.Contains(s, "speedup") {
		t.Fatalf("missing columns in:\n%s", s)
	}
	// One row per worker count, plus title and header.
	if rows := len(tables[0].Rows); rows != len(scalingWorkerCounts) {
		t.Fatalf("got %d rows, want %d", rows, len(scalingWorkerCounts))
	}
}

func TestFigScalingPinnedGroups(t *testing.T) {
	cfg := Quick()
	cfg.NumObjects = 500
	cfg.NumUsers = 40
	cfg.Runs = 1
	cfg.Groups = 8
	tables, err := FigScaling(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tables[0].Rows {
		if row[1] != "8" {
			t.Fatalf("groups column = %q, want pinned 8", row[1])
		}
	}
}
