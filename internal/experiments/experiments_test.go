package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/aal"
	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/units"
)

// The tests here assert the SHAPE claims DESIGN.md commits to for each
// experiment — who wins, where the cliffs fall — not absolute numbers.

func TestE1Shape(t *testing.T) {
	rows, tb := E1(engine.DefaultConfig())
	if len(rows) != 8 {
		t.Fatalf("%d rows, want 8 (4 routines x 2 AALs)", len(rows))
	}
	for _, r := range rows {
		if r.PerPacket {
			continue
		}
		// Every per-cell TX routine fits inside the 155 Mb/s cell time.
		if r.Frac155 >= 1 {
			t.Errorf("%s/%v: %.2fx the 155 cell time", r.Routine, r.AAL, r.Frac155)
		}
	}
	// AAL3/4 per-cell routines cost strictly more than AAL5's.
	cost := map[aal.Type]int{}
	for _, r := range rows {
		if r.Routine == "tx_cell (mid)" {
			cost[r.AAL] = r.Instr
		}
	}
	if cost[aal.AAL34] <= cost[aal.AAL5] {
		t.Errorf("AAL3/4 mid-cell %d <= AAL5 %d", cost[aal.AAL34], cost[aal.AAL5])
	}
	if !strings.Contains(tb.String(), "tx_start") {
		t.Error("table missing routines")
	}
}

func TestE2Shape(t *testing.T) {
	rows, tb := E2(engine.DefaultConfig())
	if len(rows) != 2*3*4 {
		t.Fatalf("%d rows, want 24", len(rows))
	}
	for _, r := range rows {
		if r.Lookup == "cam" && r.Buffers.String() == "paged" {
			if r.Frac155 >= 1 {
				t.Errorf("board config (cam/paged) over budget at 155: %.2fx", r.Frac155)
			}
			if r.AAL == aal.AAL5 && r.Frac622 <= 1 {
				t.Errorf("board config unexpectedly fits 622 cell time: %.2fx — "+
					"the paper's OC-12 engine gap should show", r.Frac622)
			}
		}
		// Linear lookup at 64 VCs blows every budget's 155 margin vs CAM.
		if r.Lookup == "linear" && r.Instr <= 100 {
			t.Errorf("linear lookup at 64 VCs suspiciously cheap: %d instr", r.Instr)
		}
	}
	_ = tb.String()
}

func TestE3Shape(t *testing.T) {
	ec := E3Config{Sizes: []int{64, 1024, 9180, 65535}, RunTime: 15 * sim.Millisecond, Window: 4}
	pts, s155, s622 := E3(ec)
	if len(pts) != 4*2*2 {
		t.Fatalf("%d points", len(pts))
	}
	get := func(rate units.BitRate, t aal.Type, size int) E3Point {
		for _, p := range pts {
			if p.Rate == rate && p.AAL == t && p.Size == size {
				return p
			}
		}
		panic("missing point")
	}
	// A zero MTU goodput is a broken measurement rig, not a result: the 622
	// column once read 0 because the receive FIFO overflowed and every frame
	// failed its CRC.
	for _, rate := range []units.BitRate{units.STS3cPayload, units.STS12cPayload} {
		if p := get(rate, aal.AAL5, 9180); p.GoodputBps <= 0 {
			t.Errorf("%v: MTU goodput measured as zero", rate)
		}
	}
	// Monotone-ish growth with size at 155/AAL5, saturating near ceiling.
	small := get(units.STS3cPayload, aal.AAL5, 64)
	big := get(units.STS3cPayload, aal.AAL5, 65535)
	if big.GoodputBps <= 2*small.GoodputBps {
		t.Errorf("no amortization: 64B %.1f vs 65535B %.1f Mb/s",
			small.GoodputBps/1e6, big.GoodputBps/1e6)
	}
	if big.GoodputBps < 0.8*big.CeilingBps {
		t.Errorf("big AAL5 packets at 155 reach only %.0f%% of ceiling",
			100*big.GoodputBps/big.CeilingBps)
	}
	// AAL5 >= AAL3/4 at every size (per-cell tax).
	for _, size := range ec.Sizes {
		a5 := get(units.STS3cPayload, aal.AAL5, size)
		a34 := get(units.STS3cPayload, aal.AAL34, size)
		if a34.GoodputBps > a5.GoodputBps*1.02 {
			t.Errorf("size %d: AAL3/4 %.1f beats AAL5 %.1f Mb/s",
				size, a34.GoodputBps/1e6, a5.GoodputBps/1e6)
		}
	}
	// At 622 the engines cap throughput below the wire ceiling for MTU.
	mtu622 := get(units.STS12cPayload, aal.AAL5, 9180)
	if mtu622.GoodputBps >= 0.9*mtu622.CeilingBps {
		t.Errorf("622/9180 reached %.0f%% of wire ceiling; engine bottleneck missing",
			100*mtu622.GoodputBps/mtu622.CeilingBps)
	}
	if s155.Y("AAL5-Mb/s") == nil || s622.Y("AAL3/4-Mb/s") == nil {
		t.Error("series missing")
	}
}

func TestE4Shape(t *testing.T) {
	ec := E4Config{Loads: []float64{0.25, 0.75}, SDUSize: 1024, RunTime: 20 * sim.Millisecond}
	pts, util, tput := E4(ec)
	get := func(a E4Arch, load float64) E4Point {
		for _, p := range pts {
			if p.Arch == a && p.OfferedFrac == load {
				return p
			}
		}
		panic("missing point")
	}
	// Per-cell host saturates even at 25% load; per-packet stays modest.
	pc := get(ArchPerCell, 0.25)
	pp := get(ArchPerPacket, 0.25)
	if pc.HostUtil < 0.9 {
		t.Errorf("per-cell host util %.2f at 25%% load, expected saturation", pc.HostUtil)
	}
	if pp.HostUtil > 0.5 {
		t.Errorf("per-packet host util %.2f at 25%% load, expected < 0.5", pp.HostUtil)
	}
	// Per-packet delivers far more at 75% load.
	if get(ArchPerPacket, 0.75).DeliveredBps < 3*get(ArchPerCell, 0.75).DeliveredBps {
		t.Error("per-packet did not dominate per-cell goodput at 75% load")
	}
	// Hardwired host load matches per-packet closely.
	hw := get(ArchHardwired, 0.25)
	if hw.HostUtil > pp.HostUtil*1.2+0.05 {
		t.Errorf("hardwired host util %.2f diverges from per-packet %.2f", hw.HostUtil, pp.HostUtil)
	}
	_ = util.String()
	_ = tput.String()
}

// E4's per-cell receiver recycles into the kernel's one cell pool, so the
// cells its paced sender allocates at 0.95 load depend on the cells in
// flight, not on how long the run is.
func TestE4PerCellPoolBounded(t *testing.T) {
	news := func(runTime sim.Duration) (news, gets uint64) {
		ec := DefaultE4()
		ec.RunTime = runTime
		net := e4Net(ArchPerCell, 0.95, ec)
		net.RunUntil(sim.Time(runTime))
		gets, _, news = net.Endpoint("tx").Interface().Pool().Stats()
		return news, gets
	}
	news1, gets1 := news(20 * sim.Millisecond)
	news2, gets2 := news(40 * sim.Millisecond)
	t.Logf("cells allocated: %d of %d gets over T, %d of %d over 2T", news1, gets1, news2, gets2)
	if gets2 < gets1+5000 {
		t.Fatalf("doubling the run moved no traffic: %d gets over T, %d over 2T", gets1, gets2)
	}
	if news2 > news1+16 {
		t.Fatalf("pool allocated %d cells over T and %d over 2T: allocations grow with run length", news1, news2)
	}
}

func TestE5Shape(t *testing.T) {
	rows, tb := E5()
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Measured <= 0 {
			t.Fatalf("size %d: no measurement", r.Size)
		}
		// The analytic model lands within 25% of the measurement.
		ratio := float64(r.ModelSum) / float64(r.Measured)
		if ratio < 0.75 || ratio > 1.25 {
			t.Errorf("size %d: model %v vs measured %v (ratio %.2f)",
				r.Size, r.ModelSum, r.Measured, ratio)
		}
	}
	// Wire is the largest single component of the big packet (though the
	// host's per-byte stack cost rivals it at 64 KiB); fixed per-packet
	// costs dominate the small one.
	small, big := rows[0], rows[2]
	if big.WireTime <= big.HostRx || big.WireTime <= big.HostTx || big.WireTime <= big.RxDMA {
		t.Errorf("65535B: wire %v not the largest component (hostTx %v hostRx %v rxDMA %v)",
			big.WireTime, big.HostTx, big.HostRx, big.RxDMA)
	}
	if float64(small.WireTime) > 0.5*float64(small.Measured) {
		t.Errorf("96B: wire %v dominates %v; fixed costs should", small.WireTime, small.Measured)
	}
	_ = tb.String()
}

func TestE6Shape(t *testing.T) {
	pts, sr := E6([]int{1, 16, 256})
	get := func(s string, n int) E6Point {
		for _, p := range pts {
			if p.Strategy == s && p.VCs == n {
				return p
			}
		}
		panic("missing")
	}
	// CAM flat; linear grows ~linearly; hash stays within a small factor.
	if get("cam", 1).AvgCycles != get("cam", 256).AvgCycles {
		t.Error("CAM cost not flat")
	}
	lin1, lin256 := get("linear", 1).AvgCycles, get("linear", 256).AvgCycles
	if lin256 < 50*lin1/2 {
		t.Errorf("linear did not grow: %v -> %v", lin1, lin256)
	}
	h1, h256 := get("hash", 1).AvgCycles, get("hash", 256).AvgCycles
	if h256 > 4*h1 {
		t.Errorf("hash degraded: %v -> %v", h1, h256)
	}
	if sr.Y("cam") == nil {
		t.Error("series missing")
	}
}

func TestE7Shape(t *testing.T) {
	rows, tb := E7()
	if len(rows) != 12 {
		t.Fatalf("%d rows", len(rows))
	}
	byKey := map[string]E7Row{}
	for _, r := range rows {
		byKey[r.Org.String()+itoa(r.FrameCells)] = r
	}
	// Contig pins the worst case even for 2 cells; paged scales with use.
	if byKey["contig2"].LocalBytes < 65000 {
		t.Error("contig did not pin worst case")
	}
	if byKey["paged2"].LocalBytes > 2000 {
		t.Errorf("paged 2-cell frame pins %d bytes", byKey["paged2"].LocalBytes)
	}
	// HostMem local footprint constant across sizes.
	if byKey["hostmem2"].LocalBytes != byKey["hostmem1366"].LocalBytes {
		t.Error("hostmem local footprint varies")
	}
	// Linked random access is the slow one at 1366 cells.
	if byKey["linked1366"].AccessCycles <= byKey["paged1366"].AccessCycles {
		t.Error("linked random access not worst")
	}
	_ = tb.String()
}

func TestE8Shape(t *testing.T) {
	ec := E8Config{LossProbs: []float64{1e-4, 1e-2}, Sizes: []int{1024, 65535},
		RunTime: 20 * sim.Millisecond}
	pts, sr := E8(ec)
	get := func(p float64, size int) E8Point {
		for _, pt := range pts {
			if pt.LossProb == p && pt.Size == size {
				return pt
			}
		}
		panic("missing")
	}
	// Low loss, small frames: nearly everything delivered.
	if got := get(1e-4, 1024).DeliveredFrac; got < 0.95 {
		t.Errorf("1e-4/1KiB delivered %.2f", got)
	}
	// High loss, huge frames: essentially nothing survives (p*cells >> 1).
	if got := get(1e-2, 65535).DeliveredFrac; got > 0.05 {
		t.Errorf("1e-2/64KiB delivered %.2f, want ~0", got)
	}
	// Bigger frames die sooner at the same loss rate.
	if get(1e-2, 1024).DeliveredFrac <= get(1e-2, 65535).DeliveredFrac {
		t.Error("frame-size sensitivity missing")
	}
	// Measured fraction tracks the (1-p)^cells model within 0.15.
	for _, pt := range pts {
		diff := pt.DeliveredFrac - pt.PredictedFrac
		if diff < -0.2 || diff > 0.2 {
			t.Errorf("p=%v size=%d: measured %.2f vs model %.2f",
				pt.LossProb, pt.Size, pt.DeliveredFrac, pt.PredictedFrac)
		}
	}
	_ = sr.String()
}

func TestE9Shape(t *testing.T) {
	pts, sr := E9([]int{8, 256}, 15*sim.Millisecond)
	if pts[0].FifoDrops == 0 {
		t.Error("shallow FIFO survived STS-12c MTU bursts")
	}
	last := pts[len(pts)-1]
	if last.FifoDrops != 0 {
		t.Errorf("256-cell FIFO still dropped %d", last.FifoDrops)
	}
	if last.Packets == 0 {
		t.Error("deep-FIFO run delivered nothing")
	}
	_ = sr.String()
}

func TestE10Shape(t *testing.T) {
	pts, sr := E10(nil)
	byClock := map[int]E10Point{}
	for _, p := range pts {
		byClock[p.ClockMHz] = p
	}
	if !byClock[25].OK155 {
		t.Error("25 MHz engine should clear 155 Mb/s")
	}
	if byClock[25].OK622 {
		t.Error("25 MHz engine should NOT clear 622 Mb/s")
	}
	if !byClock[150].OK622 {
		t.Error("150 MHz engine should clear 622 Mb/s")
	}
	// Monotone in clock.
	prev := 0.0
	for _, mhz := range []int{12, 25, 33, 50, 66, 100, 150} {
		if byClock[mhz].MaxMbps <= prev {
			t.Errorf("not monotone at %d MHz", mhz)
		}
		prev = byClock[mhz].MaxMbps
	}
	_ = sr.String()
}

func TestE11Shape(t *testing.T) {
	pts, sr := E11([]int{1, 3}, 10*sim.Millisecond)
	one, three := pts[0], pts[1]
	if one.FifoDrops == 0 {
		t.Fatal("one engine survived STS-12c aggregate; no bottleneck to scale away")
	}
	if one.GoodputBps <= 0 {
		t.Fatal("one engine delivered literally nothing; config degenerate")
	}
	if three.FifoDrops != 0 {
		t.Fatalf("3 engines still dropped %d cells", three.FifoDrops)
	}
	if three.GoodputBps < 3*one.GoodputBps {
		t.Fatalf("3 engines %.1f Mb/s not >= 3x one engine %.1f Mb/s",
			three.GoodputBps/1e6, one.GoodputBps/1e6)
	}
	if three.GoodputBps < 200e6 {
		t.Fatalf("3 engines only %.1f Mb/s; scale-out broken", three.GoodputBps/1e6)
	}
	if sr.Y("goodput-Mb/s") == nil {
		t.Fatal("series missing")
	}
}

func TestE12Shape(t *testing.T) {
	pts, sr := E12([]float64{0, 5e-3}, 1<<19)
	get := func(selective bool, loss float64) E12Point {
		for _, p := range pts {
			if p.Selective == selective && p.LossProb == loss {
				return p
			}
		}
		panic("missing")
	}
	cleanGBN, lossyGBN := get(false, 0), get(false, 5e-3)
	lossySR := get(true, 5e-3)
	for _, p := range pts {
		if !p.Delivered {
			t.Fatalf("delivery broken: %+v", p)
		}
	}
	if cleanGBN.Retransmits != 0 {
		t.Fatalf("clean link retransmitted %d", cleanGBN.Retransmits)
	}
	if lossyGBN.Retransmits == 0 {
		t.Fatal("0.5% loss caused no retransmissions")
	}
	// GBN goodput collapses by at least 5x; SR does strictly better.
	if lossyGBN.GoodputBps > cleanGBN.GoodputBps/5 {
		t.Fatalf("goodput %0.f vs %0.f: no collapse", lossyGBN.GoodputBps, cleanGBN.GoodputBps)
	}
	if lossySR.GoodputBps <= lossyGBN.GoodputBps {
		t.Fatalf("selective %0.f <= go-back-N %0.f under loss",
			lossySR.GoodputBps, lossyGBN.GoodputBps)
	}
	if sr.Y("go-back-N-Mb/s") == nil || sr.Y("selective-Mb/s") == nil {
		t.Fatal("series missing")
	}
}

func TestE13Shape(t *testing.T) {
	pts, sr := E13([]float64{3e-4, 1e-2}, 9180, 8, 40*sim.Millisecond)
	get := func(useFEC bool, loss float64) E13Point {
		for _, p := range pts {
			if p.FEC == useFEC && p.LossProb == loss {
				return p
			}
		}
		panic("missing")
	}
	// In the single-loss-per-group regime FEC wins clearly.
	plainLow, fecLow := get(false, 3e-4), get(true, 3e-4)
	if fecLow.Recovered == 0 {
		t.Fatal("FEC never recovered anything at 3e-4")
	}
	if fecLow.DeliveredFrac <= plainLow.DeliveredFrac {
		t.Fatalf("FEC %v <= plain %v at 3e-4", fecLow.DeliveredFrac, plainLow.DeliveredFrac)
	}
	if fecLow.DeliveredFrac < 0.99 {
		t.Fatalf("FEC delivered only %v at 3e-4", fecLow.DeliveredFrac)
	}
	// At heavy loss the single parity can't keep up; advantage shrinks.
	plainHigh, fecHigh := get(false, 1e-2), get(true, 1e-2)
	if fecHigh.DeliveredFrac > 0.9 {
		t.Fatalf("FEC implausibly good at 1e-2: %v", fecHigh.DeliveredFrac)
	}
	_ = plainHigh
	if sr.Y("fec-k8") == nil || sr.Y("no-fec") == nil {
		t.Fatal("series missing")
	}
}

func TestTelemetryShape(t *testing.T) {
	ec := DefaultTelemetry()
	ec.RunTime = 5 * sim.Millisecond
	snap, tb := Telemetry(ec)
	if tb.Rows() == 0 {
		t.Fatal("latency table empty")
	}
	// The acceptance shape: per-VC accounting plus latency histograms with
	// derivable quantiles on the tx path, the rx path, reassembly, and both
	// stations' bus arbitration (each endpoint's bus records into the
	// shared registry).
	if len(snap.VCs) != 1 || snap.VCs[0].CellsOut == 0 || snap.VCs[0].SDUsIn == 0 {
		t.Fatalf("per-VC row %+v", snap.VCs)
	}
	nonEmpty := map[string]bool{}
	for _, h := range snap.Histograms {
		if h.Count > 0 {
			nonEmpty[h.Name] = true
			if h.P50Ns > h.P99Ns || h.P99Ns > h.MaxNs {
				t.Fatalf("%s quantiles out of order: %+v", h.Name, h)
			}
			var cells uint64
			for _, b := range h.Buckets {
				cells += b.Count
			}
			if cells != h.Count {
				t.Fatalf("%s buckets sum %d != count %d", h.Name, cells, h.Count)
			}
		}
	}
	for _, want := range []string{"a.nic.tx.cell_delay", "b.nic.rx.cell_delay",
		"b.nic.rx.reassembly_time", "b.nic.rx.intr_service",
		"bus.a.txdma.grant_wait", "bus.b.rxdma.grant_wait"} {
		if !nonEmpty[want] {
			t.Fatalf("histogram %s empty or missing (have %v)", want, nonEmpty)
		}
	}
	// End-to-end conservation on a lossless fiber: every cell a sent, b saw.
	if snap.VCs[0].CellsOut != snap.VCs[0].CellsIn {
		t.Fatalf("cells out %d != in %d", snap.VCs[0].CellsOut, snap.VCs[0].CellsIn)
	}
}

func TestE14Shape(t *testing.T) {
	res, tb := E14(20 * sim.Millisecond)
	unshaped, shaped := res[0], res[1]
	if shaped.Cells == 0 || unshaped.Cells == 0 {
		t.Fatal("policer saw no cells")
	}
	// The acceptance shape: a GCRA-shaped source passes its own contract's
	// policer with ZERO non-conforming cells...
	if n := shaped.Tagged + shaped.Discarded; n != 0 {
		t.Fatalf("shaped source: %d non-conforming cells (tagged %d, discarded %d)",
			n, shaped.Tagged, shaped.Discarded)
	}
	if shaped.Delivered == 0 || shaped.AALErrors != 0 {
		t.Fatalf("shaped source delivered %d frames, %d AAL errors",
			shaped.Delivered, shaped.AALErrors)
	}
	// ...while the unshaped source at the same mean rate gets tagged and
	// discarded hard enough to break frames.
	if unshaped.Tagged == 0 || unshaped.Discarded == 0 {
		t.Fatalf("unshaped source: tagged %d, discarded %d — policer asleep",
			unshaped.Tagged, unshaped.Discarded)
	}
	if unshaped.Delivered >= shaped.Delivered {
		t.Fatalf("unshaped delivered %d >= shaped %d", unshaped.Delivered, shaped.Delivered)
	}
	if !strings.Contains(tb.String(), "shaped") {
		t.Error("table missing rows")
	}
}

func TestE15Shape(t *testing.T) {
	overloads := []float64{0.7, 1.3, 2.0}
	pts, sr := E15(overloads, 15*sim.Millisecond)
	get := func(epd bool, ov float64) E15Point {
		for _, p := range pts {
			if p.EPD == epd && p.Overload == ov {
				return p
			}
		}
		panic("missing point")
	}
	// EPD/PPD goodput >= tail drop at EVERY overload point.
	for _, ov := range overloads {
		tail, epd := get(false, ov), get(true, ov)
		if epd.Efficiency < tail.Efficiency {
			t.Errorf("ov=%.1f: epd %.3f < tail %.3f", ov, epd.Efficiency, tail.Efficiency)
		}
	}
	// The gap is widest at moderate overload: tail drop shreds frames there,
	// while at 2x it claws goodput back only through FIFO lockout (one
	// sender captures the queue and the other starves).
	gap := func(ov float64) float64 { return get(true, ov).Efficiency - get(false, ov).Efficiency }
	if gap(1.3) <= gap(0.7) || gap(1.3) <= gap(2.0) {
		t.Errorf("gap not widest at moderate overload: 0.7=%.3f 1.3=%.3f 2.0=%.3f",
			gap(0.7), gap(1.3), gap(2.0))
	}
	// Tail drop breaks frames mid-stream at moderate overload; EPD's whole
	// frame discard keeps reassembly clean.
	if get(false, 1.3).AALErrors == 0 {
		t.Error("tail drop at 1.3x produced no AAL errors")
	}
	if get(true, 1.3).AALErrors != 0 {
		t.Errorf("EPD at 1.3x produced %d AAL errors", get(true, 1.3).AALErrors)
	}
	if get(true, 1.3).EPDCells == 0 {
		t.Error("EPD never triggered at 1.3x")
	}
	// Drop attribution splits by level: EPD's deliberate frame-granular
	// discard is accounted per VC under DropEPD and leaves no stranded
	// reassembly state, while tail drop's losses surface (partly) as
	// partial frames aged out of the receiver — and never as DropEPD.
	var tailStale uint64
	for _, p := range pts {
		if p.EPD {
			if p.EPDDropCells != p.EPDCells {
				t.Errorf("ov=%.1f epd: per-VC epd drops %d != switch epd cells %d",
					p.Overload, p.EPDDropCells, p.EPDCells)
			}
			if p.TimeoutFrames != 0 {
				t.Errorf("ov=%.1f epd: %d stranded frames aged out", p.Overload, p.TimeoutFrames)
			}
		} else {
			tailStale += p.TimeoutFrames
			if p.EPDDropCells != 0 {
				t.Errorf("ov=%.1f tail: unexpected per-VC epd drops %d", p.Overload, p.EPDDropCells)
			}
		}
	}
	if tailStale == 0 {
		t.Error("tail drop stranded no partial frames across the sweep (reassembly timeout never attributed)")
	}
	if sr.Y("tail-drop") == nil || sr.Y("epd-ppd") == nil {
		t.Fatal("series missing")
	}
}

func TestE16Shape(t *testing.T) {
	pts, sr := E16(15 * sim.Millisecond)
	get := func(n int, rate units.BitRate) E16Point {
		for _, p := range pts {
			if p.Switches == n && p.Rate == rate {
				return p
			}
		}
		panic("missing point")
	}
	for _, p := range pts {
		if p.Delivered == 0 {
			t.Fatalf("hops=%d %v: no probe cells survived", p.Switches, p.Rate)
		}
		// Every point admits the probe plus that hop's cross flow at the
		// last output port — the per-hop CAC ran at every switch.
		if p.Admitted != 2 {
			t.Errorf("hops=%d %v: last-port CAC carries %d contracts, want 2",
				p.Switches, p.Rate, p.Admitted)
		}
		if len(p.PerHop) != p.Switches {
			t.Fatalf("hops=%d: %d per-hop rows", p.Switches, len(p.PerHop))
		}
		for _, h := range p.PerHop {
			if h.Mean <= 0 {
				t.Errorf("hops=%d %v: %s residency histogram empty", p.Switches, p.Rate, h.Switch)
			}
		}
	}
	// The acceptance shape, both halves. At 155 Mb/s every added loaded hop
	// adds delay variation, so end-to-end CDV grows monotonically with the
	// switch count...
	for n := 2; n <= 4; n++ {
		prev, cur := get(n-1, units.STS3cPayload), get(n, units.STS3cPayload)
		if cur.E2ECDV <= prev.E2ECDV {
			t.Errorf("155 Mb/s CDV not accumulating: %d hops %v <= %d hops %v",
				n, cur.E2ECDV, n-1, prev.E2ECDV)
		}
		if cur.E2EMean <= prev.E2EMean {
			t.Errorf("155 Mb/s mean delay not accumulating: %d hops %v <= %d hops %v",
				n, cur.E2EMean, n-1, prev.E2EMean)
		}
	}
	// ...while the 622 Mb/s ports drain four times faster and absorb most
	// of the variation the slower ports would accumulate.
	for n := 1; n <= 4; n++ {
		slow, fast := get(n, units.STS3cPayload), get(n, units.STS12cPayload)
		if fast.E2ECDV >= slow.E2ECDV {
			t.Errorf("%d hops: 622 CDV %v >= 155 CDV %v", n, fast.E2ECDV, slow.E2ECDV)
		}
	}
	if sr.Y(fmt.Sprintf("%v cdv-us", units.STS3cPayload)) == nil {
		t.Fatal("series missing 155 Mb/s line")
	}
}

func TestE17Shape(t *testing.T) {
	res, sr := E17(20 * sim.Millisecond)
	if res.PreFaultDelivered == 0 {
		t.Fatal("no frames delivered before the fault")
	}
	if res.PostRestoreDelivered == 0 {
		t.Fatal("flow did not resume after the repair")
	}
	if res.CellsDroppedDown == 0 {
		t.Fatal("fault injection dropped no cells — was the link ever down?")
	}
	// The fault plane closed its loop: AIS on the wire and at dst's host,
	// RDI back at src's host, and both alarms cleared after the repair.
	if res.DetectLatency < 0 || res.AISCellsSent == 0 {
		t.Fatalf("no AIS observed downstream: %+v", res)
	}
	if res.AISRaised < 0 || res.AISCleared < 0 {
		t.Fatalf("dst AIS alarm did not declare and clear: %+v", res)
	}
	if res.RDIRaised < 0 || res.RDICleared < 0 || res.RDICellsSent == 0 {
		t.Fatalf("src RDI alarm did not declare and clear: %+v", res)
	}
	// Detection is one propagation delay (50 µs) after the cut; AIS at the
	// host follows within the insertion period plus transit.
	if res.DetectLatency > sim.Duration(sim.Millisecond) {
		t.Errorf("detection took %v, want < 1ms", res.DetectLatency)
	}
	if res.RecoveryLatency < 0 {
		t.Errorf("no frame delivered after restore: %+v", res)
	}
	// The reassembly GC reclaimed what the cut stranded: the partial frame
	// in flight at kill time was aborted and its SRAM returned.
	if res.StaleFramesReclaimed == 0 {
		t.Error("reassembly GC reclaimed nothing despite a mid-frame cut")
	}
	if res.SRAMEnd != 0 {
		t.Errorf("adapter SRAM still pins %d bytes after the run", res.SRAMEnd)
	}
	if sr == nil || len(sr.X) == 0 {
		t.Fatal("empty report series")
	}
}

func TestE18Reconciles(t *testing.T) {
	rows, tb, rec := E18()
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	if tb == nil || rec == nil {
		t.Fatal("missing table or recorder")
	}
	for _, r := range rows {
		if r.Measured <= 0 {
			t.Fatalf("rate %v: no measurement", r.Rate)
		}
		for _, seg := range []struct {
			name string
			d    sim.Duration
		}{{"host-tx", r.HostTx}, {"sar+fifo", r.SARFifo}, {"prop", r.Prop},
			{"rx-fifo", r.RxFifo}, {"rx-cell", r.RxCell}, {"deliver", r.Deliver}} {
			if seg.d < 0 {
				t.Errorf("rate %v: negative %s segment %v", r.Rate, seg.name, seg.d)
			}
		}
		// The segments are measured between consecutive recorded boundaries,
		// so the decomposition must reconcile with the end-to-end latency
		// (acceptance budget 5%; the telescoping construction makes it exact).
		ratio := float64(r.Sum) / float64(r.Measured)
		if ratio < 0.95 || ratio > 1.05 {
			t.Errorf("rate %v: stage sum %v vs measured %v (ratio %.3f)",
				r.Rate, r.Sum, r.Measured, ratio)
		}
		// Propagation is pinned by the spec: 2 km at 5 us/km.
		if r.Prop != 10_000 {
			t.Errorf("rate %v: prop segment %v, want 10us", r.Rate, r.Prop)
		}
	}
	// The wire-paced SAR+FIFO segment must shrink substantially from STS-3c
	// to STS-12c (~3x: the 4x wire speedup is partly eaten by the TX engine
	// becoming the bottleneck); the fixed host-side ends must not change.
	r155, r622 := rows[0], rows[1]
	if float64(r622.SARFifo)*2.5 > float64(r155.SARFifo) {
		t.Errorf("sar+fifo did not scale with rate: 155 %v vs 622 %v", r155.SARFifo, r622.SARFifo)
	}
	if r155.HostTx != r622.HostTx {
		t.Errorf("host-tx should be rate-independent: %v vs %v", r155.HostTx, r622.HostTx)
	}
}

func TestE19Shape(t *testing.T) {
	fracs := []float64{0.25, 0.5, 2.0}
	pts, sr := E19(fracs, 2*sim.Second)
	get := func(epd bool, frac float64) E19Point {
		for _, p := range pts {
			if p.EPD == epd && p.BufferFrac == frac {
				return p
			}
		}
		panic("missing point")
	}
	for _, p := range pts {
		if p.Efficiency <= 0.3 || p.Efficiency > 1 {
			t.Errorf("%s: efficiency %.3f out of range", p.String(), p.Efficiency)
		}
		if p.EPD && (p.EPDCells == 0 || p.TailDropped != 0) {
			t.Errorf("%s: EPD run dropped wrong way (epd=%d tail=%d)",
				p.String(), p.EPDCells, p.TailDropped)
		}
		if !p.EPD && (p.TailDropped == 0 || p.EPDCells != 0) {
			t.Errorf("%s: tail run dropped wrong way (epd=%d tail=%d)",
				p.String(), p.EPDCells, p.TailDropped)
		}
	}
	// The satellite-ATM result: tail-drop goodput degrades as the buffer
	// shrinks below ~1xBDP...
	if tailSmall, tailBig := get(false, 0.25), get(false, 2.0); tailSmall.Efficiency > tailBig.Efficiency-0.05 {
		t.Errorf("tail drop did not degrade at small buffer: 0.25x %.3f vs 2x %.3f",
			tailSmall.Efficiency, tailBig.Efficiency)
	}
	// ...and EPD/PPD recovers most of it where the squeeze is on.
	for _, frac := range []float64{0.25, 0.5} {
		tail, epd := get(false, frac), get(true, frac)
		if epd.Efficiency < tail.Efficiency+0.02 {
			t.Errorf("EPD did not recover at %.2fxBDP: epd %.3f vs tail %.3f",
				frac, epd.Efficiency, tail.Efficiency)
		}
	}
	// Reno pays for congestion in retransmissions either way; the policies
	// must at least be exercised.
	if get(false, 0.25).Retransmits == 0 || get(true, 0.25).Retransmits == 0 {
		t.Error("no retransmissions at the smallest buffer — no congestion?")
	}
	if sr.Y("tail-drop") == nil || sr.Y("epd-ppd") == nil {
		t.Fatal("series missing")
	}
}

func TestE20SingleFlowShape(t *testing.T) {
	res, tb := E20(1, 6*sim.Second)
	if len(res.Flows) != 1 {
		t.Fatalf("%d flows", len(res.Flows))
	}
	f := res.Flows[0]
	// The GEO pipe is clean and over-buffered: zero loss events, and an
	// RTT pinned at the 552 ms propagation floor (plus queueing epsilon).
	if f.Retransmits != 0 || f.Timeouts != 0 {
		t.Errorf("loss events on a clean GEO path: %+v", f)
	}
	if f.SRTT < e20RTT || f.SRTT > e20RTT+20*sim.Millisecond {
		t.Errorf("SRTT %v, want ~%v", f.SRTT, e20RTT)
	}
	// Window-limited regime: goodput approaches RcvWnd/RTT (short of it by
	// the seconds slow start burns at this RTT) and never exceeds it.
	if f.GoodputBps < 0.6*res.WindowLimitBps || f.GoodputBps > 1.05*res.WindowLimitBps {
		t.Errorf("goodput %.0f vs window limit %.0f", f.GoodputBps, res.WindowLimitBps)
	}
	// cwnd opened past the advertised window: the flow is receiver-limited.
	if f.CwndBytes < e20RcvWnd {
		t.Errorf("cwnd %d never reached the advertised window %d", f.CwndBytes, e20RcvWnd)
	}
	// The sampled cwnd trace is the deliverable: it must exist, grow to a
	// plateau at/above the advertised window, and never fall back (no loss).
	rows := res.Sampler.Rows()
	if len(rows) < 50 {
		t.Fatalf("sampler recorded %d rows", len(rows))
	}
	const col = "tcp.geo0.cwnd"
	mid, last := rows[len(rows)/2].Values[col], rows[len(rows)-1].Values[col]
	if last < float64(e20RcvWnd) {
		t.Errorf("final sampled cwnd %.0f below advertised window %d", last, e20RcvWnd)
	}
	if last < mid {
		t.Errorf("cwnd trace fell back: mid %.0f -> last %.0f", mid, last)
	}
	if !strings.Contains(tb.String(), "geo0") {
		t.Error("table missing flow row")
	}
}

func TestE20TwoFlowFairness(t *testing.T) {
	res, _ := E20(2, 8*sim.Second)
	if len(res.Flows) != 2 {
		t.Fatalf("%d flows", len(res.Flows))
	}
	if res.JainIndex < 0.95 {
		t.Errorf("Jain index %.4f — staggered window-limited flows should converge", res.JainIndex)
	}
	for _, f := range res.Flows {
		if f.Retransmits != 0 || f.Timeouts != 0 {
			t.Errorf("flow %s saw loss on the over-buffered GEO path: %+v", f.Name, f)
		}
		if f.GoodputBps < 0.5*res.WindowLimitBps {
			t.Errorf("flow %s goodput %.0f below half the window limit", f.Name, f.GoodputBps)
		}
	}
}

func TestE21Shape(t *testing.T) {
	pts, sr := E21(30 * sim.Millisecond)
	if len(pts) != 3 {
		t.Fatalf("%d delay points", len(pts))
	}
	var stamped uint64
	for _, p := range pts {
		// The converged operating point is delay-invariant: max-min fair
		// shares at the ERICA target, whatever the loop length.
		if !p.Converged {
			t.Errorf("delay %v: never converged", p.FeedbackDelay)
		}
		if p.Jain < 0.95 {
			t.Errorf("delay %v: Jain %.4f < 0.95", p.FeedbackDelay, p.Jain)
		}
		// Bounded bottleneck queue: ERICA holds the excursion far below
		// the 512-cell buffer, so nothing rides on tail drop.
		if p.QueuePeak <= 0 || p.QueuePeak > 256 {
			t.Errorf("delay %v: queue peak %d cells", p.FeedbackDelay, p.QueuePeak)
		}
		stamped += p.ERStamped
		// Each source settles at or above the nominal fair share (ERICA
		// allocates measured load; duty factor < 1 lifts ACR, never drops
		// it below fair share) and well below the 622 access rate.
		for _, src := range p.Sources {
			if src.MeanACR < 0.9*p.FairShare || src.MeanACR > 4*p.FairShare {
				t.Errorf("delay %v %s: mean ACR %.0f vs fair share %.0f",
					p.FeedbackDelay, src.Name, src.MeanACR, p.FairShare)
			}
			if src.Delivered == 0 {
				t.Errorf("delay %v %s: no cells delivered", p.FeedbackDelay, src.Name)
			}
		}
	}
	if stamped == 0 {
		t.Error("ERICA never stamped an explicit rate")
	}
	for _, y := range []string{"jain-index", "queue-peak-cells", "convergence-us"} {
		if sr.Y(y) == nil {
			t.Fatalf("series %q missing", y)
		}
	}
}
