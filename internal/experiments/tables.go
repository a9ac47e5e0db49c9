package experiments

import (
	"fmt"
	"strings"
)

// Table4 — dataset description (the paper's Table 4), computed on the
// actual synthetic datasets used at the configured scale.
func Table4(cfg Config) *Table {
	t := &Table{
		Title:  "Table 4 — dataset description",
		Header: []string{"Property", "Flickr-like", "Yelp-like"},
	}
	fc := cfg
	fc.Dataset = Flickr
	f := datasetFor(fc).Describe()
	y := datasetFor(yelp(cfg)).Describe()
	t.AddRow("Total objects", fmt.Sprint(f.TotalObjects), fmt.Sprint(y.TotalObjects))
	t.AddRow("Total unique terms", fmt.Sprint(f.TotalUniqueTerms), fmt.Sprint(y.TotalUniqueTerms))
	t.AddRow("Avg unique terms per object", f1(f.AvgUniquePerObj), f1(y.AvgUniquePerObj))
	t.AddRow("Total terms in dataset", fmt.Sprint(f.TotalTermsInData), fmt.Sprint(y.TotalTermsInData))
	return t
}

// Table5 — the experiment parameters: each swept parameter's range, as
// the figure that varies it sweeps it, with the configuration's value
// starred where the range holds it (the paper's bold defaults). k comes
// first, as Fig 5 sweeps it; Fig 14 sweeps it again.
func Table5(cfg Config) *Table {
	t := &Table{
		Title:  "Table 5 — parameters (scaled; * = default)",
		Header: []string{"Parameter", "Range"},
	}
	axes := []axis{kAxis}
	for _, s := range sweeps {
		if s.axis.name != kAxis.name {
			axes = append(axes, s.axis)
		}
	}
	for _, a := range axes {
		cells := make([]string, len(a.vals))
		for i, v := range a.vals {
			cells[i] = a.format(v)
			if v == a.get(cfg) {
				cells[i] += "*"
			}
		}
		t.AddRow(a.name+a.note, strings.Join(cells, ","))
	}
	return t
}
