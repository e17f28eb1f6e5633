package report

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.Row("alpha", 1)
	tb.Row("b", 2.5)
	out := tb.String()
	if !strings.Contains(out, "Demo") {
		t.Fatal("title missing")
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "2.500") {
		t.Fatalf("rows missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Title, underline, header, separator, two rows.
	if len(lines) != 6 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("T", "a", "b")
	tb.Row("x", 1)
	tb.Row("longer", 2)
	out := tb.String()
	lines := strings.Split(out, "\n")
	// Find the two data rows; 'b' column values must align.
	var idx []int
	for _, ln := range lines[4:6] {
		i := strings.IndexAny(ln, "12")
		idx = append(idx, i)
	}
	if len(idx) != 2 || idx[0] != idx[1] {
		t.Fatalf("columns misaligned:\n%s", out)
	}
}

func TestFloatFormatting(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		1234567: "1234567",
		42.25:   "42.2",
		3.14159: "3.142",
	}
	for x, want := range cases {
		if got := trimFloat(x); got != want {
			t.Errorf("trimFloat(%v) = %q, want %q", x, got, want)
		}
	}
}

func TestCellAccessor(t *testing.T) {
	tb := NewTable("T", "a")
	tb.Row("v1")
	if tb.rows[0][0] != "v1" || tb.Rows() != 1 {
		t.Fatal("accessors broken")
	}
}

func TestCSV(t *testing.T) {
	tb := NewTable("T", "a", "b")
	tb.Row("plain", `has "quotes", and comma`)
	csv := tb.CSV()
	want := "a,b\nplain,\"has \"\"quotes\"\", and comma\"\n"
	if csv != want {
		t.Fatalf("CSV = %q, want %q", csv, want)
	}
}

func TestNote(t *testing.T) {
	tb := NewTable("T", "a")
	tb.Note = "reconstructed"
	tb.Row(1)
	if !strings.Contains(tb.String(), "note: reconstructed") {
		t.Fatal("note missing")
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries("Fig", "x", []float64{1, 2, 3})
	s.Add("tput", []float64{10, 20, 30})
	s.Add("util", []float64{0.1, 0.2, 0.3})
	out := s.String()
	if !strings.Contains(out, "tput") || !strings.Contains(out, "util") {
		t.Fatalf("missing series:\n%s", out)
	}
	if got := s.Y("tput"); len(got) != 3 || got[2] != 30 {
		t.Fatalf("Y(tput) = %v", got)
	}
	if s.Y("absent") != nil {
		t.Fatal("phantom series")
	}
}

func TestSeriesLengthMismatchPanics(t *testing.T) {
	s := NewSeries("F", "x", []float64{1, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched series did not panic")
		}
	}()
	s.Add("bad", []float64{1})
}

func TestSeriesCSV(t *testing.T) {
	s := NewSeries("F", "x", []float64{1, 2})
	s.Add("y", []float64{10, 20})
	want := "x,y\n1.000,10.0\n2.000,20.0\n"
	if got := s.CSV(); got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}
