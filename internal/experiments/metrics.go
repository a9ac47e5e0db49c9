package experiments

import (
	"fmt"
	"strings"
)

// TopKMetrics aggregates the phase-1 measurements of the evaluation:
// the mean runtime per user (MRPU) and the mean simulated I/O cost per
// user (MIOCPU), plus their totals (Figure 12's panels).
type TopKMetrics struct {
	TotalMillis float64
	TotalIO     int64
	Users       int
}

// MRPU returns the mean runtime per user in milliseconds.
func (m TopKMetrics) MRPU() float64 {
	if m.Users == 0 {
		return 0
	}
	return m.TotalMillis / float64(m.Users)
}

// MIOCPU returns the mean simulated I/O count per user.
func (m TopKMetrics) MIOCPU() float64 {
	if m.Users == 0 {
		return 0
	}
	return float64(m.TotalIO) / float64(m.Users)
}

// add accumulates another run for averaging.
func (m *TopKMetrics) add(o TopKMetrics) {
	m.TotalMillis += o.TotalMillis
	m.TotalIO += o.TotalIO
	m.Users += o.Users
}

// SelectionMetrics aggregates the phase-2 (candidate selection) runtime.
type SelectionMetrics struct {
	Millis float64
	Runs   int
}

// MeanMillis returns the average runtime per run.
func (m SelectionMetrics) MeanMillis() float64 {
	if m.Runs == 0 {
		return 0
	}
	return m.Millis / float64(m.Runs)
}

func (m *SelectionMetrics) add(millis float64) {
	m.Millis += millis
	m.Runs++
}

// Table is a formatted experiment result, one per figure panel or paper
// table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// f1 formats a float with one decimal.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

// f2 formats a float with two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// f3 formats a float with three decimals.
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// d formats an integer.
func d(v int64) string { return fmt.Sprintf("%d", v) }
