package experiments

import (
	"reflect"
	"strings"
	"testing"
)

func TestTableFormatting(t *testing.T) {
	tb := &Table{Title: "demo", Header: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	tb.AddRow("333", "4")
	s := tb.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "333") {
		t.Errorf("table output:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 {
		t.Errorf("want 4 lines, got %d", len(lines))
	}
}

func TestMetricsAccessors(t *testing.T) {
	m := TopKMetrics{TotalMillis: 100, TotalIO: 500, Users: 50}
	if m.MRPU() != 2 {
		t.Errorf("MRPU = %v", m.MRPU())
	}
	if m.MIOCPU() != 10 {
		t.Errorf("MIOCPU = %v", m.MIOCPU())
	}
	var zero TopKMetrics
	if zero.MRPU() != 0 || zero.MIOCPU() != 0 {
		t.Error("zero metrics should be 0")
	}

	var s SelectionMetrics
	s.add(10)
	s.add(20)
	if s.MeanMillis() != 15 {
		t.Errorf("selection mean = %v", s.MeanMillis())
	}
	if (SelectionMetrics{}).MeanMillis() != 0 {
		t.Error("empty selection metrics")
	}
}

func TestDatasetKindString(t *testing.T) {
	if Flickr.String() != "Flickr" || Yelp.String() != "Yelp" {
		t.Error("kind names")
	}
}

func TestConfigs(t *testing.T) {
	def := Default()
	if def.K != 10 || def.Alpha != 0.5 || def.WS != 3 {
		t.Errorf("defaults = %+v", def)
	}
	q := Quick()
	if q.NumObjects >= def.NumObjects {
		t.Error("Quick should be smaller than Default")
	}
}

func TestWorkloadConstruction(t *testing.T) {
	cfg := Quick()
	w := NewWorkload(cfg, 0)
	if len(w.DS.Objects) != cfg.NumObjects {
		t.Errorf("objects = %d", len(w.DS.Objects))
	}
	if len(w.US.Users) != cfg.NumUsers {
		t.Errorf("users = %d", len(w.US.Users))
	}
	if len(w.Locs) != cfg.NumLocs {
		t.Errorf("locations = %d", len(w.Locs))
	}
	q := w.Query()
	if err := q.Validate(); err != nil {
		t.Errorf("workload query invalid: %v", err)
	}
	// dataset caching: same cfg+seed shares the dataset
	w2 := NewWorkload(cfg, 1)
	if w2.DS != w.DS {
		t.Error("dataset should be cached across runs")
	}
}

func TestMeasureProducesSaneNumbers(t *testing.T) {
	cfg := Quick()
	cfg.Runs = 1
	m, err := measure(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if m.Base.MIOCPU() <= m.Joint.MIOCPU() {
		t.Errorf("baseline MIOCPU %v should exceed joint %v", m.Base.MIOCPU(), m.Joint.MIOCPU())
	}
	if m.Sel[1].MeanMillis() < 0 || m.Sel[2].MeanMillis() < 0 {
		t.Error("negative runtimes")
	}
	if r := m.Ratio(); r < 0 || r > 1 {
		t.Errorf("ratio = %v outside [0,1]", r)
	}
}

// TestFig15Pinned pins Fig 15's deterministic columns — simulated I/O
// with and without the MIUR-tree and the share of users it prunes — at
// Quick() scale. Indexed(ms) is wall-clock and not compared.
func TestFig15Pinned(t *testing.T) {
	tables, err := Fig15(Quick(), []int{50, 200})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		// |U|, Un-indexed I/O, Indexed I/O, Users pruned (%)
		{"50", "218", "221", "4.0"},
		{"200", "217", "229", "8.0"},
	}
	rows := tables[0].Rows
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	for i, w := range want {
		if got := rows[i][:len(w)]; !reflect.DeepEqual(got, w) {
			t.Errorf("row %d = %q, want %q", i, got, w)
		}
	}
}

// figurePins holds, by title, the deterministic cells of every table
// TestFigureRunnersSmoke, TestAblations, TestFigDisk and TestFigScaling
// compute (see pinned): simulated I/O, counts, ratios and the parameter
// columns. They move only when an answer or the work a query does moves.
var figurePins = map[string][]string{
	"Fig 5b — MIOCPU vs k": {
		"k | B(LM) | J(LM) | B(TFIDF) | J(TFIDF) | B(KO) | J(KO)",
		"2 | 32.7 | 1.8 | 23.9 | 1.8 | 23.2 | 1.8",
	},
	"Fig 5d — approximation ratio vs k": {
		"k | LM | TFIDF | KO",
		"2 | 0.944 | 0.174 | 0.800",
	},
	"Fig 6ab — top-k phase vs α": {
		"alpha | B MIOCPU | J MIOCPU",
		"0.5 | 48.0 | 1.8",
	},
	"Fig 6cd — candidate selection vs α": {
		"alpha | ratio",
		"0.5 | 1.000",
	},
	"Fig 7 — varying UL — top-k phase": {
		"UL | B MIOCPU | J MIOCPU",
		"2 | 44.4 | 1.8",
	},
	"Fig 7 — varying UL — candidate selection": {
		"UL | ratio",
		"2 | 1.000",
	},
	"Fig 8 — varying UW — top-k phase": {
		"UW | B MIOCPU | J MIOCPU",
		"8 | 46.1 | 1.8",
	},
	"Fig 8 — varying UW — candidate selection": {
		"UW | ratio",
		"8 | 1.000",
	},
	"Fig 9 — top-k phase vs Area": {
		"Area | B MIOCPU | J MIOCPU",
		"5.0 | 48.0 | 1.8",
	},
	"Fig 10 — candidate selection vs |L|": {
		"|L| | ratio",
		"5 | 1.000",
	},
	"Fig 11 — candidate selection vs ws": {
		"ws | ratio",
		"1 | 1.000",
	},
	"Fig 12ab — total top-k cost vs |U|": {
		"|U| | B total I/O | J total I/O",
		"50 | 2606 | 176",
	},
	"Fig 12cd — candidate selection vs |U|": {
		"|U| | ratio",
		"50 | 1.000",
	},
	"Fig 13ab — top-k phase vs |O|": {
		"|O| | B MIOCPU | J MIOCPU",
		"1000 | 36.0 | 0.9",
	},
	"Fig 13cd — candidate selection vs |O|": {
		"|O| | ratio",
		"1000 | 1.000",
	},
	"Fig 14 — varying k (Yelp) — top-k phase": {
		"k | B MIOCPU | J MIOCPU",
		"2 | 395.4 | 11.9",
	},
	"Fig 14 — varying k (Yelp) — candidate selection": {
		"k | ratio",
		"2 | 1.000",
	},
	"Fig 15 — user index (Section 7; selective workload: KO, k=1, ws=1, sparse users)": {
		"|U| | Un-indexed I/O | Indexed I/O | Users pruned (%)",
		"50 | 165 | 168 | 4.0",
	},
	"Ablation — MIR-tree min weights vs IR-tree (joint traversal)": {
		"index | I/O | candidates",
		"MIR (run 0) | 176 | 1230",
		"IR  (run 0) | 144 | 1230",
	},
	"Ablation — super-user grouping (shared vs per-user traversal)": {
		"strategy | total I/O",
		"joint (super-user) | 176",
		"per-user on MIR-tree | 6222",
	},
	"Ablation — Algorithm 3 best-first early termination": {
		"strategy | count",
		"best-first | 95",
		"every location | 95",
	},
	"Disk — cold vs warm serving from the saved index file": {
		"backend | sim I/O | phys records | phys pages | decoded hit/miss | |BRSTkNN|",
		"in-memory | 67 | 0 | 0 | 0/0 | 57",
		"disk cold | 67 | 52 | 67 | 0/0 | 57",
		"decoded first touch | 67 | 52 | 67 | 0/52 | 57",
		"decoded warm | 0 | 255 | 255 | 52/0 | 57",
	},
	"Scaling — parallel engine speedup vs workers (exact method)": {
		"workers | groups | |BRSTkNN|",
		"1 | 1 | 57",
		"2 | 2 | 57",
		"4 | 4 | 57",
		"8 | 8 | 57",
	},
}

// pinned renders tb's deterministic cells, header first, one line per
// row: every column but the wall-clock ones, whose header mentions ms or a
// speedup. A table titled "(ms)" is all wall-clock and renders as nil.
func pinned(tb *Table) []string {
	if strings.Contains(tb.Title, "(ms)") {
		return nil
	}
	var keep []int
	for i, h := range tb.Header {
		if !strings.Contains(h, "ms") && !strings.Contains(h, "speedup") {
			keep = append(keep, i)
		}
	}
	var lines []string
	for _, row := range append([][]string{tb.Header}, tb.Rows...) {
		cells := make([]string, len(keep))
		for j, i := range keep {
			cells[j] = row[i]
		}
		lines = append(lines, strings.Join(cells, " | "))
	}
	return lines
}

// checkPinned holds every table's deterministic cells to figurePins.
func checkPinned(t *testing.T, tables ...*Table) {
	t.Helper()
	for _, tb := range tables {
		if got, want := pinned(tb), figurePins[tb.Title]; !reflect.DeepEqual(got, want) {
			t.Errorf("%q pinned cells:\n%s\nwant:\n%s", tb.Title, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}

// smokeValues is the one value each sweep runs at in
// TestFigureRunnersSmoke; figurePins holds the cells it computes.
var smokeValues = map[string]float64{
	"fig6": 0.5, "fig7": 2, "fig8": 8, "fig9": 5, "fig10": 5,
	"fig11": 1, "fig12": 50, "fig13": 1000, "fig14": 2,
}

// TestFigureRunnersSmoke runs every figure once at Quick() scale, one
// value per sweep, and holds its tables to figurePins. A sweep without a
// smoke value fails, so no figure goes unpinned.
func TestFigureRunnersSmoke(t *testing.T) {
	cfg := Quick()
	cfg.Runs = 1
	figs := map[string]func() ([]*Table, error){
		"fig5":  func() ([]*Table, error) { return Fig05(cfg, []float64{2}) },
		"fig15": func() ([]*Table, error) { return Fig15(cfg, []int{50}) },
	}
	for _, s := range sweeps {
		v, ok := smokeValues[s.name]
		if !ok {
			t.Errorf("sweep %s has no smoke value", s.name)
			continue
		}
		figs[s.name] = func() ([]*Table, error) { return s.run(cfg, []float64{v}) }
	}
	for name, fn := range figs {
		t.Run(name, func(t *testing.T) {
			tables, err := fn()
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tb := range tables {
				if len(tb.Rows) == 0 {
					t.Errorf("%s: empty table %q", name, tb.Title)
				}
				if tb.String() == "" {
					t.Errorf("%s: empty rendering", name)
				}
			}
			checkPinned(t, tables...)
		})
	}
}

func TestTableRunners(t *testing.T) {
	cfg := Quick()
	if t4 := Table4(cfg); len(t4.Rows) != 4 {
		t.Errorf("Table4 rows = %d", len(t4.Rows))
	}
}

// TestTable5Pinned holds Table 5's rows at both configurations: each
// range is its sweep's, and the configuration's value is starred where
// the range holds it.
func TestTable5Pinned(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
		want [][]string
	}{
		{"Default", Default(), [][]string{
			{"k", "1,5,10*,20,50"},
			{"alpha", "0.1,0.3,0.5*,0.7,0.9"},
			{"UL (keywords per user)", "1,2,3*,4,5,6"},
			{"UW (unique user keywords)", "5,10,20*,30,40"},
			{"Area", "1.0,2.0,5.0*,10.0,20.0"},
			{"|L|", "1,20,50*,100,300"},
			{"ws", "1,2,3*,4,5"},
			{"|U|", "100,500,1000*,2000,4000"},
			{"|O| (paper: 1M–8M)", "10000,20000*,40000,80000"},
		}},
		{"Quick", Quick(), [][]string{
			{"k", "1,5,10*,20,50"},
			{"alpha", "0.1,0.3,0.5*,0.7,0.9"},
			{"UL (keywords per user)", "1,2,3*,4,5,6"},
			{"UW (unique user keywords)", "5,10,20,30,40"},
			{"Area", "1.0,2.0,5.0*,10.0,20.0"},
			{"|L|", "1,20,50,100,300"},
			{"ws", "1,2*,3,4,5"},
			{"|U|", "100*,500,1000,2000,4000"},
			{"|O| (paper: 1M–8M)", "10000,20000,40000,80000"},
		}},
	} {
		if got := Table5(c.cfg).Rows; !reflect.DeepEqual(got, c.want) {
			t.Errorf("Table5(%s()) rows = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestAblations(t *testing.T) {
	cfg := Quick()
	cfg.Runs = 1
	for _, a := range ablations {
		t.Run(a.name, func(t *testing.T) {
			tb, err := a.run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(tb.Rows) < 2 {
				t.Errorf("ablation table too small:\n%s", tb)
			}
			checkPinned(t, tb)
		})
	}
}
