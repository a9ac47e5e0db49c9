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
