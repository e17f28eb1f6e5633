// Package report renders the experiment harness's output: aligned text
// tables (the form the paper's tables take) and x/y series blocks (the form
// its figures take), plus CSV for anyone who wants to re-plot.
package report

import (
	"fmt"
	"strings"
)

// Table is a titled grid with a header row.
type Table struct {
	Title string
	Note  string
	cols  []string
	rows  [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(title string, cols ...string) *Table {
	return &Table{Title: title, cols: cols}
}

// Row appends a row; values are rendered with %v, and float64 values with
// three significant decimals.
func (t *Table) Row(vals ...any) *Table {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			row[i] = trimFloat(x)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
	return t
}

// Rows returns the number of data rows. No program reads it;
// TestTelemetryShape checks that the latency table is not empty.
func (t *Table) Rows() int { return len(t.rows) }

func trimFloat(x float64) string {
	abs := x
	if abs < 0 {
		abs = -abs
	}
	switch {
	case x == 0:
		return "0"
	case abs >= 1000:
		return fmt.Sprintf("%.0f", x)
	case abs >= 10:
		return fmt.Sprintf("%.1f", x)
	case abs < 0.01:
		return fmt.Sprintf("%.1e", x)
	default:
		return fmt.Sprintf("%.3f", x)
	}
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	b.WriteString(t.Title)
	b.WriteByte('\n')
	b.WriteString(strings.Repeat("=", len(t.Title)))
	b.WriteByte('\n')

	widths := make([]int, len(t.cols))
	for i, c := range t.cols {
		widths[i] = len(c)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.cols)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	if t.Note != "" {
		b.WriteString("note: " + t.Note + "\n")
	}
	return b.String()
}

// CSV renders the table as comma-separated values (headers first). Cells
// containing commas or quotes are quoted.
func (t *Table) CSV() string {
	var b strings.Builder
	writeCSVRow(&b, t.cols)
	for _, r := range t.rows {
		writeCSVRow(&b, r)
	}
	return b.String()
}

func writeCSVRow(b *strings.Builder, cells []string) {
	for i, c := range cells {
		if i > 0 {
			b.WriteByte(',')
		}
		if strings.ContainsAny(c, ",\"\n") {
			b.WriteByte('"')
			b.WriteString(strings.ReplaceAll(c, `"`, `""`))
			b.WriteByte('"')
		} else {
			b.WriteString(c)
		}
	}
	b.WriteByte('\n')
}

// Series is a figure: one x column and one or more named y columns.
type Series struct {
	Title  string
	XLabel string
	X      []float64
	ys     []namedSeries
}

type namedSeries struct {
	name string
	y    []float64
}

// NewSeries creates a figure block.
func NewSeries(title, xLabel string, x []float64) *Series {
	return &Series{Title: title, XLabel: xLabel, X: x}
}

// Add attaches a y series; its length must match X.
func (s *Series) Add(name string, y []float64) *Series {
	if len(y) != len(s.X) {
		panic(fmt.Sprintf("report: series %q has %d points, x has %d", name, len(y), len(s.X)))
	}
	s.ys = append(s.ys, namedSeries{name: name, y: y})
	return s
}

// Y returns the named series' values (nil if absent). No program reads it;
// the experiment shape tests assert on the curves through it.
func (s *Series) Y(name string) []float64 {
	for _, ns := range s.ys {
		if ns.name == name {
			return ns.y
		}
	}
	return nil
}

// table renders the series as a Table.
func (s *Series) table() *Table {
	cols := []string{s.XLabel}
	for _, ns := range s.ys {
		cols = append(cols, ns.name)
	}
	t := NewTable(s.Title, cols...)
	for i, x := range s.X {
		row := make([]any, 0, len(cols))
		row = append(row, trimFloat(x))
		for _, ns := range s.ys {
			row = append(row, ns.y[i])
		}
		t.Row(row...)
	}
	return t
}

// String renders the series as an aligned table of x vs each y.
func (s *Series) String() string { return s.table().String() }

// CSV renders the series as comma-separated values.
func (s *Series) CSV() string { return s.table().CSV() }
