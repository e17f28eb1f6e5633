package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/units"
)

// E18Row is the flight-recorder decomposition of one MTU packet's journey:
// each segment is the interval between consecutive stage boundaries recorded
// by the span hooks, so the segments telescope — Sum equals Measured exactly,
// with no analytic model in between (contrast E5, which models the same
// journey from first principles).
type E18Row struct {
	Rate units.BitRate
	Size int
	// Segments (ns), in journey order:
	HostTx   sim.Duration // Send call to first cell entering the TX FIFO
	SARFifo  sim.Duration // first FIFO entry to last cell leaving (wire-paced)
	Prop     sim.Duration // last cell's fiber flight
	RxFifo   sim.Duration // last cell's RX FIFO residency
	RxCell   sim.Duration // last cell popped to frame reassembly complete
	Deliver  sim.Duration // reassembly complete to host delivery interrupt
	Sum      sim.Duration
	Measured sim.Duration // wall interval from Send to OnReceive
}

// E18 decomposes E5's single-packet MTU latency per pipeline stage at both
// line rates, using the flight recorder's stage spans instead of an analytic
// model. The large-MTU journey is wire-dominated at STS-3c; at STS-12c the
// wire shrinks 4x and the fixed receive-side costs surface. Returns the rows,
// the rendered table, and the recorder of the last (STS-12c) run for trace
// export.
func E18() ([]E18Row, *report.Table, *trace.Recorder) {
	const size = 9180 // the paper's MTU
	var rows []E18Row
	var lastRec *trace.Recorder
	for _, rate := range []units.BitRate{units.STS3cPayload, units.STS12cPayload} {
		row, rec := runE18Point(rate, size)
		rows = append(rows, row)
		lastRec = rec
	}
	tb := report.NewTable("E18: measured per-stage latency decomposition (AAL5, 9180 B, 2 km)",
		"rate", "host-tx", "sar+fifo", "prop", "rx-fifo", "rx-cell", "deliver", "sum", "measured")
	tb.Note = "segments from flight-recorder stage spans; sum telescopes to the measured e2e latency"
	for _, r := range rows {
		tb.Row(fmt.Sprintf("%.0fM", float64(r.Rate)/1e6),
			r.HostTx.String(), r.SARFifo.String(), r.Prop.String(), r.RxFifo.String(),
			r.RxCell.String(), r.Deliver.String(), r.Sum.String(), r.Measured.String())
	}
	return rows, tb, lastRec
}

// runE18Point runs one traced single-packet world and extracts the segment
// boundaries from the recorded events.
func runE18Point(rate units.BitRate, size int) (E18Row, *trace.Recorder) {
	opts := core.Options{Rate: rate}
	if rate == units.STS12cPayload {
		// E9's result applied (as in E11): the default 32-cell FIFO
		// overflows at STS-12c arrival spacing; 128 absorbs the burst.
		opts.RxFifoCells = 128
	}
	spec := pair(core.EndpointSpec{Name: "a", Options: opts}, core.EndpointSpec{Name: "b", Options: opts},
		core.LinkSpec{Delay: 10_000, Seed: 3},
		core.VCCSpec{Name: "ab", From: "a", To: "b", VC: stdVC})
	// One MTU at STS-12c is ~200 cells; one span per cell in each of its
	// three stages, plus the frame's reassembly span and delivery point,
	// fits comfortably in 4096 — no wraparound, so the telescoping
	// extraction below sees every boundary.
	spec.TraceCapacity = 4096
	net := build(spec)
	k, rec := net.Kernel(), net.Recorder()
	a, b := net.Endpoint("a"), net.Endpoint("b")

	var start, end sim.Time
	payload := make([]byte, size)
	k.At(0, func() {
		start = k.Now()
		b.OnReceive(func(p core.Packet) { end = p.At })
		a.Send(stdVC, payload, nil)
	})
	k.Run()

	// Boundary extraction: each stage's first span start and last span
	// end, and the delivery point. The segments between consecutive
	// boundaries telescope to end-start.
	var tA, tB, tC, tD, tE, tF sim.Time
	haveA := false
	for _, ev := range rec.Events() {
		node, stage := rec.StageName(ev.Stage)
		switch {
		case node == "a" && stage == "tx.fifo" && ev.Kind == trace.KindSpan:
			if !haveA {
				tA, haveA = ev.Start, true
			}
			tB = ev.At
		case node == "ab.fwd" && stage == "wire" && ev.Kind == trace.KindSpan:
			tC = ev.At
		case node == "b" && stage == "rx.fifo" && ev.Kind == trace.KindSpan:
			tD = ev.At
		case node == "b" && stage == "rx.reasm" && ev.Kind == trace.KindSpan:
			tE = ev.At
		case node == "b" && stage == "rx.deliver" && ev.Kind == trace.KindPoint:
			tF = ev.At
		}
	}
	row := E18Row{
		Rate: rate, Size: size,
		HostTx:   sim.Duration(tA - start),
		SARFifo:  sim.Duration(tB - tA),
		Prop:     sim.Duration(tC - tB),
		RxFifo:   sim.Duration(tD - tC),
		RxCell:   sim.Duration(tE - tD),
		Deliver:  sim.Duration(tF - tE),
		Measured: sim.Duration(end - start),
	}
	row.Sum = row.HostTx + row.SARFifo + row.Prop + row.RxFifo + row.RxCell + row.Deliver
	return row, rec
}
