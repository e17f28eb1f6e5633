package netsim

import (
	"testing"

	"repro/internal/atm"
	"repro/internal/nic"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/tm"
	"repro/internal/units"
)

func TestSwitchEFCIMarking(t *testing.T) {
	// Eight back-to-back cells into a port with EFCI threshold 4: the
	// first four commit below the threshold and leave clean, the rest are
	// marked — including the EOM cell, whose AAU bit must survive (PT
	// 0b001 → 0b011, still end-of-frame).
	k := sim.NewKernel()
	sw := NewSwitch(k, "sw", 2, units.STS3cPayload, 16, atm.NewPool(0), nil)
	sw.SetThresholds(1, 0, 0, 4)
	var got []*atm.Cell
	sw.Port(1).AttachSink(atm.SinkFunc(func(c *atm.Cell) { got = append(got, c) }))
	sw.SetRoute(0, vc(7), 1, vc(7), RouteOptions{Class: tm.UBR})
	in := sw.Port(0)
	for i := 0; i < 7; i++ {
		in.DeliverCell(mkCell(7, atm.PTUser0, false))
	}
	in.DeliverCell(mkCell(7, atm.PTUserEnd, false))
	k.Run()
	if len(got) != 8 {
		t.Fatalf("delivered %d cells, want 8", len(got))
	}
	for i, c := range got {
		want := i >= 4
		if c.Header.PT.Congestion() != want {
			t.Fatalf("cell %d: congestion=%v, want %v (PT=%03b)", i, !want, want, c.Header.PT)
		}
	}
	last := got[7].Header.PT
	if last != atm.PTUserCongestedEnd || !last.EndOfFrame() {
		t.Fatalf("EOM cell marked to PT=%03b; want %03b with AAU intact", last, atm.PTUserCongestedEnd)
	}
	if n := sw.Stats().EFCIMarked; n != 4 {
		t.Fatalf("EFCIMarked=%d, want 4", n)
	}
}

func TestSwitchEFCIPreservedThroughRewrite(t *testing.T) {
	// Cells that arrive already EFCI-marked keep their PT through the
	// header rewrite, and non-user cells are never marked no matter how
	// deep the queue is.
	k := sim.NewKernel()
	sw := NewSwitch(k, "sw", 2, units.STS3cPayload, 16, atm.NewPool(0), nil)
	sw.SetThresholds(1, 0, 0, 1) // mark everything after the first commit
	var got []*atm.Cell
	sw.Port(1).AttachSink(atm.SinkFunc(func(c *atm.Cell) { got = append(got, c) }))
	sw.SetRoute(0, vc(10), 1, vc(20), RouteOptions{Class: tm.UBR})
	in := sw.Port(0)
	in.DeliverCell(mkCell(10, atm.PTUserCongested, false))
	in.DeliverCell(mkCell(10, atm.PTUserCongestedEnd, false))
	oam := mkCell(10, atm.PTOAMSegment, false)
	in.DeliverCell(oam)
	k.Run()
	if len(got) != 3 {
		t.Fatalf("delivered %d cells, want 3", len(got))
	}
	wantPT := []atm.PT{atm.PTUserCongested, atm.PTUserCongestedEnd, atm.PTOAMSegment}
	for i, c := range got {
		if c.Header.VC() != vc(20) {
			t.Fatalf("cell %d: VC not translated: %v", i, c.Header.VC())
		}
		if c.Header.PT != wantPT[i] {
			t.Fatalf("cell %d: PT=%03b, want %03b", i, c.Header.PT, wantPT[i])
		}
	}
}

// deliverRM builds an RM cell and delivers it to the port.
func deliverRM(in *SwitchPort, vci uint16, rm atm.RM) *atm.Cell {
	c := &atm.Cell{Header: atm.Header{Format: atm.UNI, VCI: vci, PT: atm.PTResourceMgmt}}
	rm.Encode(&c.Payload)
	in.DeliverCell(c)
	return c
}

func TestERICAStampsBackwardRM(t *testing.T) {
	// Forward ABR data crosses port 1 while ERICA measures; a backward RM
	// cell arriving on port 1 (the reverse direction of the same fiber)
	// gets its ER reduced to the port's allocation. Forward RM cells pass
	// untouched.
	k := sim.NewKernel()
	sw := NewSwitch(k, "sw", 2, units.STS3cPayload, 64, atm.NewPool(0), nil)
	sw.EnableERICA(1, ERICAConfig{TargetUtil: 0.9, Interval: 100 * sim.Microsecond})
	var fwd, rev []*atm.Cell
	sw.Port(1).AttachSink(atm.SinkFunc(func(c *atm.Cell) { fwd = append(fwd, c) }))
	sw.Port(0).AttachSink(atm.SinkFunc(func(c *atm.Cell) { rev = append(rev, c) }))
	sw.SetRoute(0, vc(10), 1, vc(20), RouteOptions{Class: tm.ABR})
	sw.SetRoute(1, vc(20), 0, vc(10), RouteOptions{Class: tm.ABR})
	in0, in1 := sw.Port(0), sw.Port(1)

	const pcr = 1_412_830.0 // a 622 Mb/s source's peak rate
	// A backward RM cell before any measurement: capped at the target
	// utilization of the drain rate, nothing more.
	target := 0.9 * units.CellRate(units.STS3cPayload)
	deliverRM(in1, 20, atm.RM{DIR: true, ER: pcr, CCR: pcr})

	// ~100 µs of forward ABR data at ~100k cells/s, the source declaring
	// CCR=100k in its forward RM cells.
	ct := 10 * sim.Microsecond
	for i := 0; i < 30; i++ {
		i := i
		k.At(sim.Time(i)*sim.Time(ct), func() {
			if i%31 == 30 {
				deliverRM(in0, 10, atm.RM{ER: pcr, CCR: 100_000})
				return
			}
			in0.DeliverCell(mkCell(10, atm.PTUser0, false))
		})
	}
	k.At(sim.Time(5*sim.Microsecond), func() {
		deliverRM(in0, 10, atm.RM{ER: pcr, CCR: 100_000})
	})
	// After the first interval has rolled over, a backward RM cell must be
	// stamped with a fair, capacity-bounded rate.
	k.At(sim.Time(150*sim.Microsecond), func() {
		deliverRM(in1, 20, atm.RM{DIR: true, CI: true, ER: pcr, CCR: 100_000})
	})
	k.Run()

	if len(rev) != 2 {
		t.Fatalf("reverse side saw %d cells, want 2 backward RM cells", len(rev))
	}
	var rm0, rm1 atm.RM
	if err := rm0.Decode(&rev[0].Payload); err != nil {
		t.Fatalf("pre-measurement BRM corrupted: %v", err)
	}
	if rm0.ER > target*1.001 || rm0.ER < target*0.999 {
		t.Fatalf("pre-measurement ER=%.0f, want the %.0f utilization cap", rm0.ER, target)
	}
	if err := rm1.Decode(&rev[1].Payload); err != nil {
		t.Fatalf("stamped BRM corrupted: %v", err)
	}
	// The 16-bit ATM rate format quantizes to 1 part in 512, so allow the
	// cap to round up by that much.
	if rm1.ER >= target*(1+1.0/512) || rm1.ER <= 0 {
		t.Fatalf("stamped ER=%.0f, want inside (0, ~%.0f)", rm1.ER, target)
	}
	if !rm1.CI || !rm1.DIR {
		t.Fatal("stamping must not touch DIR/CI")
	}
	if sw.Stats().ERStamped != 2 {
		t.Fatalf("ERStamped=%d, want 2", sw.Stats().ERStamped)
	}
	// Forward RM cells crossed unmodified.
	for _, c := range fwd {
		if c.Header.PT != atm.PTResourceMgmt {
			continue
		}
		var rm atm.RM
		if err := rm.Decode(&c.Payload); err != nil {
			t.Fatalf("forward RM corrupted: %v", err)
		}
		if rm.DIR || rm.ER != atm.DecodeRate(atm.EncodeRate(pcr)) {
			t.Fatalf("forward RM modified: %+v", rm)
		}
	}
}

func TestABRSourceRampsToPCRWithoutCongestion(t *testing.T) {
	// Station pair, no switch, no congestion: the destination turns every
	// forward RM cell around with CI clear, so the source's additive
	// increase walks ACR from ICR up to PCR. The forward RM cadence on the
	// wire is one per Nrm cells.
	k := sim.NewKernel()
	a := station(t, k, nic.DefaultConfig("a"))
	b := station(t, k, nic.DefaultConfig("b"))
	var frm, data int
	fwdLink := phy.NewCellLink(k, 1000, 1, b, atm.NewPool(0))
	revLink := phy.NewCellLink(k, 1000, 2, a, atm.NewPool(0))
	a.AttachSink(atm.SinkFunc(func(c *atm.Cell) {
		if c.Header.PT == atm.PTResourceMgmt {
			frm++
		} else if c.Header.PT.User() {
			data++
		}
		fwdLink.DeliverCell(c)
	}))
	brm := 0
	b.AttachSink(atm.SinkFunc(func(c *atm.Cell) {
		if c.Header.PT == atm.PTResourceMgmt {
			brm++
		}
		revLink.DeliverCell(c)
	}))
	a.OpenVC(vc(30))
	b.OpenVC(vc(30))
	p := tm.ABRParams{PCR: 100_000, ICR: 10_000, Nrm: 32}
	if err := a.SetABR(vc(30), p); err != nil {
		t.Fatal(err)
	}
	deadline := sim.Time(20 * sim.Millisecond)
	greedy(k, a, vc(30), 9180, deadline, 4)
	k.RunUntil(deadline)
	k.Run()

	acr, ok := a.ACR(vc(30))
	if !ok {
		t.Fatal("ACR lost")
	}
	// The ER field rides the 16-bit ATM rate format, so "up to PCR" means
	// up to PCR as that format represents it.
	if want := atm.DecodeRate(atm.EncodeRate(p.PCR)); acr != want {
		t.Fatalf("uncongested ACR=%.0f, want ramp to PCR=%.0f", acr, want)
	}
	if frm == 0 || brm == 0 {
		t.Fatalf("no RM circulation: frm=%d brm=%d", frm, brm)
	}
	if brm > frm {
		t.Fatalf("more backward (%d) than forward (%d) RM cells", brm, frm)
	}
	// One FRM per Nrm-1 data cells, give or take the deferred sends when
	// the TX FIFO is full.
	if lo, hi := data/(2*p.Nrm), data/(p.Nrm-1)+1; frm < lo || frm > hi {
		t.Fatalf("FRM cadence off: %d FRM for %d data cells (want within [%d, %d])", frm, data, lo, hi)
	}
}

func TestSwitchEPDTracksCongestedEOF(t *testing.T) {
	// Frame delineation at the switch keys on the AAU bit, which EFCI
	// marking upstream must not disturb: an EOM cell arriving as PT 0b011
	// (congested + end) still closes the frame, so EPD refuses exactly the
	// next frame and forwards the first one whole.
	k := sim.NewKernel()
	sw := NewSwitch(k, "sw", 2, units.STS3cPayload, 10, atm.NewPool(0), nil)
	sw.SetThresholds(1, 0, 4, 0)
	var got []*atm.Cell
	sw.Port(1).AttachSink(atm.SinkFunc(func(c *atm.Cell) { got = append(got, c) }))
	sw.SetRoute(0, vc(7), 1, vc(7), RouteOptions{Class: tm.UBR})
	in := sw.Port(0)
	frame := func(n int) {
		for i := 0; i < n-1; i++ {
			in.DeliverCell(mkCell(7, atm.PTUserCongested, false))
		}
		in.DeliverCell(mkCell(7, atm.PTUserCongestedEnd, false))
	}
	frame(6) // admitted: occupancy 0 at frame start
	frame(4) // refused whole: occupancy 6 >= 4 at its first cell
	k.Run()
	st := sw.Stats()
	if st.EPDFrames != 1 || st.EPDCells != 4 {
		t.Fatalf("epd stats with congested EOFs %+v", st)
	}
	if len(got) != 6 {
		t.Fatalf("delivered %d cells, want 6 (frame A only)", len(got))
	}
	if got[5].Header.PT != atm.PTUserCongestedEnd || !got[5].Header.PT.EndOfFrame() {
		t.Fatalf("frame A's congested EOF mangled: PT=%03b", got[5].Header.PT)
	}
}
