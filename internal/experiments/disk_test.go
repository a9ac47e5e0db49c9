package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// TestFigDisk runs the disk experiment at smoke scale and checks the
// ledger invariants: the cold row performs physical reads (it has no
// cache); the fully warm row misses nothing and charges no simulated I/O,
// its physical reads being the posting runs its cached directories read;
// and — the cross-check the experiment exists for —
// the cold row's physical page count equals its simulated I/O count,
// since without a cache every simulated charge is a real record fetch.
func TestFigDisk(t *testing.T) {
	cfg := Quick()
	cfg.NumObjects = 800
	cfg.NumUsers = 60
	cfg.Runs = 1
	tables, err := FigDisk(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Fatalf("got %d tables, want 1", len(tables))
	}
	tb := tables[0]
	checkPinned(t, tb)
	if len(tb.Rows) != 4 {
		t.Fatalf("got %d rows, want 4:\n%s", len(tb.Rows), tb.String())
	}
	cell := func(row, col int) int64 {
		v, err := strconv.ParseInt(tb.Rows[row][col], 10, 64)
		if err != nil {
			t.Fatalf("row %d col %d %q: %v", row, col, tb.Rows[row][col], err)
		}
		return v
	}
	const (
		colSimIO   = 3
		colRecords = 4
		colPages   = 5
		colCount   = 7
	)
	if n := cell(0, colRecords); n != 0 {
		t.Fatalf("in-memory row reports %d physical records", n)
	}
	if n := cell(1, colRecords); n == 0 {
		t.Fatal("cold row reports no physical reads")
	}
	if sim, pages := cell(1, colSimIO), cell(1, colPages); sim != pages {
		t.Fatalf("cold row: simulated I/O %d != physical pages %d — the cost model drifted from the substrate", sim, pages)
	}
	if n := cell(3, colSimIO); n != 0 {
		t.Fatalf("warm row charges %d simulated I/Os", n)
	}
	if !strings.HasSuffix(tb.Rows[3][6], "/0") {
		t.Fatalf("warm row has decoded misses: %q", tb.Rows[3][6])
	}
	for row := 1; row < 4; row++ {
		if cell(row, colCount) != cell(0, colCount) {
			t.Fatalf("row %d |BRSTkNN| %d != in-memory %d", row, cell(row, colCount), cell(0, colCount))
		}
	}
}
