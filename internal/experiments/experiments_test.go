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
	if m.SelExact.MeanMillis() < 0 || m.SelApprox.MeanMillis() < 0 {
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

func TestFigureRunnersSmoke(t *testing.T) {
	cfg := Quick()
	cfg.Runs = 1
	type figFn func() ([]*Table, error)
	figs := map[string]figFn{
		"fig5":  func() ([]*Table, error) { return Fig05(cfg, []int{2}) },
		"fig6":  func() ([]*Table, error) { return Fig06(cfg, []float64{0.5}) },
		"fig7":  func() ([]*Table, error) { return Fig07(cfg, []int{2}) },
		"fig8":  func() ([]*Table, error) { return Fig08(cfg, []int{8}) },
		"fig9":  func() ([]*Table, error) { return Fig09(cfg, []float64{5}) },
		"fig10": func() ([]*Table, error) { return Fig10(cfg, []int{5}) },
		"fig11": func() ([]*Table, error) { return Fig11(cfg, []int{1}) },
		"fig12": func() ([]*Table, error) { return Fig12(cfg, []int{50}) },
		"fig13": func() ([]*Table, error) { return Fig13(cfg, []int{1000}) },
		"fig14": func() ([]*Table, error) { return Fig14(cfg, []int{2}) },
		"fig15": func() ([]*Table, error) { return Fig15(cfg, []int{50}) },
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
		})
	}
}

func TestTableRunners(t *testing.T) {
	cfg := Quick()
	t4, err := Table4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(t4.Rows) != 4 {
		t.Errorf("Table4 rows = %d", len(t4.Rows))
	}
	t5 := Table5(cfg)
	if len(t5.Rows) != 9 {
		t.Errorf("Table5 rows = %d", len(t5.Rows))
	}
	if !strings.Contains(t5.String(), "*") {
		t.Error("Table5 should mark defaults")
	}
}

func TestAblations(t *testing.T) {
	cfg := Quick()
	cfg.Runs = 1
	for name, fn := range map[string]func(Config) (*Table, error){
		"min-weights": AblationMinWeights,
		"super-user":  AblationSuperUser,
		"best-first":  AblationBestFirst,
	} {
		t.Run(name, func(t *testing.T) {
			tb, err := fn(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(tb.Rows) < 2 {
				t.Errorf("ablation table too small:\n%s", tb)
			}
		})
	}
}
