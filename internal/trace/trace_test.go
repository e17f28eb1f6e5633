package trace

import (
	"strings"
	"testing"

	"repro/internal/atm"
	"repro/internal/sim"
)

func cellOn(vci uint16, pt atm.PT) *atm.Cell {
	c := &atm.Cell{}
	c.Header = atm.Header{Format: atm.UNI, VCI: vci, PT: pt}
	return c
}

func TestTapPassesThroughAndRecords(t *testing.T) {
	k := sim.NewKernel()
	cap := New(k)
	var passed []*atm.Cell
	sink := cap.Tap(func(c *atm.Cell) { passed = append(passed, c) })
	k.At(100, func() { sink(cellOn(1, atm.PTUser0)) })
	k.At(200, func() { sink(cellOn(2, atm.PTUserEnd)) })
	k.Run()
	if len(passed) != 2 {
		t.Fatalf("passed %d cells", len(passed))
	}
	recs := cap.Records()
	if len(recs) != 2 || recs[0].At != 100 || recs[1].At != 200 {
		t.Fatalf("records %+v", recs)
	}
	if recs[1].Cell.Header.VCI != 2 {
		t.Fatal("record contents wrong")
	}
}

func TestTapCopiesCells(t *testing.T) {
	// The record must be a snapshot: pools recycle cells after the tap.
	k := sim.NewKernel()
	cap := New(k)
	sink := cap.Tap(func(c *atm.Cell) { c.Header.VCI = 999 })
	sink(cellOn(42, atm.PTUser0))
	if cap.Records()[0].Cell.Header.VCI != 42 {
		t.Fatal("record aliased the live cell")
	}
}

func TestLimitAndOverflow(t *testing.T) {
	k := sim.NewKernel()
	cap := New(k)
	cap.Limit = 3
	sink := cap.Tap(func(*atm.Cell) {})
	for i := 0; i < 10; i++ {
		sink(cellOn(uint16(i), atm.PTUser0))
	}
	if len(cap.Records()) != 3 || cap.overflow != 7 {
		t.Fatalf("records %d overflow %d", len(cap.Records()), cap.overflow)
	}
	// First-N semantics.
	if cap.Records()[0].Cell.Header.VCI != 0 {
		t.Fatal("did not keep first matches")
	}
}

func TestSummary(t *testing.T) {
	k := sim.NewKernel()
	cap := New(k)
	sink := cap.Tap(func(*atm.Cell) {})
	// VC 5: three cells at 0,100,200, the last an EOF; VC 9: one OAM.
	times := []sim.Time{100, 200, 300}
	pts := []atm.PT{atm.PTUser0, atm.PTUser0, atm.PTUserEnd}
	for i := range times {
		i := i
		k.At(times[i], func() { sink(cellOn(5, pts[i])) })
	}
	k.At(150, func() { sink(cellOn(9, atm.PTOAMEndToEnd)) })
	k.Run()
	summary := cap.Summary()
	sum := summary.PerVC
	if len(sum) != 2 {
		t.Fatalf("%d VCs", len(sum))
	}
	if summary.Stored != 4 || summary.Overflowed != 0 {
		t.Fatalf("stored %d overflowed %d", summary.Stored, summary.Overflowed)
	}
	v5, v9 := sum[0], sum[1]
	if v5.VC.VCI != 5 || v9.VC.VCI != 9 {
		t.Fatalf("sort order wrong: %+v", sum)
	}
	if v5.Cells != 3 || v5.Frames != 1 || v5.MeanGap != 100 {
		t.Fatalf("v5 %+v", v5)
	}
	if v5.First != 100 || v5.Last != 300 {
		t.Fatalf("v5 times %+v", v5)
	}
	if v9.OAMCells != 1 || v9.Frames != 0 {
		t.Fatalf("v9 %+v", v9)
	}
}

func TestDumpFormat(t *testing.T) {
	k := sim.NewKernel()
	cap := New(k)
	cap.Limit = 1
	sink := cap.Tap(func(*atm.Cell) {})
	sink(cellOn(3, atm.PTUserEnd))
	sink(cellOn(4, atm.PTUser0))
	var b strings.Builder
	if err := cap.Dump(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "vc=0/3") || !strings.Contains(out, "pt=001") {
		t.Fatalf("dump:\n%s", out)
	}
	if !strings.Contains(out, "1 further matches not stored") {
		t.Fatalf("overflow note missing:\n%s", out)
	}
}

func TestOverflowedAndSummaryAccounting(t *testing.T) {
	k := sim.NewKernel()
	cap := New(k)
	cap.Limit = 2
	sink := cap.Tap(func(*atm.Cell) {})
	for i := 0; i < 5; i++ {
		sink(cellOn(1, atm.PTUser0))
	}
	sum := cap.Summary()
	if sum.Stored != 2 || sum.Overflowed != 3 {
		t.Fatalf("summary stored %d overflowed %d", sum.Stored, sum.Overflowed)
	}
	// The truncation must also surface in the text dump.
	var b strings.Builder
	if err := cap.Dump(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "3 further matches") {
		t.Fatalf("dump silent about overflow:\n%s", b.String())
	}
}
