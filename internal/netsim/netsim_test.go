package netsim

import (
	"bytes"
	"testing"

	"repro/internal/atm"
	"repro/internal/bus"
	"repro/internal/host"
	"repro/internal/metrics"
	"repro/internal/nic"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/tm"
	"repro/internal/units"
)

func vc(n uint16) atm.VC { return atm.VC{VCI: n} }

// station builds the paper's interface on a default host and bus.
func station(t *testing.T, k *sim.Kernel, cfg nic.Config) *nic.Interface {
	t.Helper()
	iface, err := nic.New(k, cfg, host.New(k, host.DefaultConfig()), bus.New(k, bus.DefaultConfig()), atm.NewPool(0))
	if err != nil {
		t.Fatal(err)
	}
	return iface
}

// greedy keeps window SDUs of size bytes in flight on iface's vc, each send
// chained to the previous one's transmit-complete, until deadline.
func greedy(k *sim.Kernel, iface *nic.Interface, vc atm.VC, size int, deadline sim.Time, window int) {
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i)
	}
	var send func()
	send = func() {
		if k.Now() > deadline {
			return
		}
		if err := iface.Send(vc, payload, send); err != nil {
			panic(err)
		}
	}
	for i := 0; i < window; i++ {
		send()
	}
}

func TestSwitchRoutesAndTranslates(t *testing.T) {
	k := sim.NewKernel()
	a := station(t, k, nic.DefaultConfig("a"))
	b := station(t, k, nic.DefaultConfig("b"))
	sw := NewSwitch(k, "sw", 2, units.STS3cPayload, 64, atm.NewPool(0), nil)

	// a → port0 → switch → port1 → b, with VC translation 10→20.
	sw.Port(1).AttachSink(b)
	sw.SetRoute(0, vc(10), 1, vc(20), RouteOptions{Class: tm.UBR})
	a.AttachSink(sw.Port(0))

	a.OpenVC(vc(10))
	b.OpenVC(vc(20))
	var got *nic.Delivered
	b.OnReceive(func(d nic.Delivered) {
		d.SDU = bytes.Clone(d.SDU)
		got = &d
	})
	payload := bytes.Repeat([]byte{7}, 500)
	a.Send(vc(10), payload, nil)
	k.Run()
	if got == nil {
		t.Fatal("switch delivered nothing")
	}
	if got.VC != vc(20) {
		t.Fatalf("VC not translated: %v", got.VC)
	}
	if !bytes.Equal(got.SDU, payload) {
		t.Fatal("payload corrupted through switch")
	}
	if sw.Stats().Routed == 0 || sw.Stats().NoRoute != 0 {
		t.Fatalf("switch stats %+v", sw.Stats())
	}
}

func TestSwitchDropsUnrouted(t *testing.T) {
	k := sim.NewKernel()
	a := station(t, k, nic.DefaultConfig("a"))
	sw := NewSwitch(k, "sw", 2, units.STS3cPayload, 16, atm.NewPool(0), nil)
	a.AttachSink(sw.Port(0))
	a.OpenVC(vc(99))
	a.Send(vc(99), []byte{1}, nil)
	k.Run()
	if sw.Stats().NoRoute == 0 {
		t.Fatal("unrouted cells not counted")
	}
}

func TestSwitchCongestionDrops(t *testing.T) {
	// Two inputs converge on one output: the output queue must overflow
	// and drop, and the survivors' frames still reassemble or fail
	// cleanly downstream.
	k := sim.NewKernel()
	a := station(t, k, nic.DefaultConfig("a"))
	b := station(t, k, nic.DefaultConfig("b"))
	c := station(t, k, nic.DefaultConfig("c"))
	sw := NewSwitch(k, "sw", 3, units.STS3cPayload, 8, atm.NewPool(0), nil)
	// Unequal fiber runs into the switch break the senders' cell-clock
	// phase lock, so overflow drops hit both flows (as jittered real
	// arrivals would).
	linkA := phy.NewCellLink(k, 1000, 11, sw.Port(0), atm.NewPool(0))
	linkB := phy.NewCellLink(k, 2400, 12, sw.Port(1), atm.NewPool(0))
	a.AttachSink(linkA)
	b.AttachSink(linkB)
	sw.Port(2).AttachSink(c)
	sw.SetRoute(0, vc(1), 2, vc(1), RouteOptions{Class: tm.UBR})
	sw.SetRoute(1, vc(2), 2, vc(2), RouteOptions{Class: tm.UBR})
	a.OpenVC(vc(1))
	b.OpenVC(vc(2))
	c.OpenVC(vc(1))
	c.OpenVC(vc(2))
	delivered := 0
	c.OnReceive(func(d nic.Delivered) { delivered++ })
	// Both senders blast simultaneously: 2x line rate into 1x output.
	deadline := sim.Time(10 * sim.Millisecond)
	// Different packet sizes give the two flows different burst/gap
	// rhythms, so overflow drops land mid-frame on both.
	greedy(k, a, vc(1), 9180, deadline, 3)
	greedy(k, b, vc(2), 1000, deadline, 3)
	k.RunUntil(deadline + sim.Time(10*sim.Millisecond))
	if sw.Stats().Dropped == 0 {
		t.Fatal("2:1 overload produced no switch drops")
	}
	st := c.Stats()
	if st.Rx.AALErrors == 0 {
		t.Fatal("switch drops never surfaced as AAL errors")
	}
	_ = delivered // some frames may survive; all that matters is clean failure
}

func TestSwitchInvalidGeometryPanics(t *testing.T) {
	k := sim.NewKernel()
	defer func() {
		if recover() == nil {
			t.Fatal("zero ports did not panic")
		}
	}()
	NewSwitch(k, "x", 0, units.STS3cPayload, 8, atm.NewPool(0), nil)
}

func TestSwitchRateMismatchCongestion(t *testing.T) {
	// A 622 Mb/s sender through a switch whose output port drains at
	// 155 Mb/s: the 4:1 rate mismatch must overflow the output queue for
	// a greedy flow, and a properly paced flow must pass clean.
	run := func(paceCellsPerSec float64) (drops uint64, delivered uint64) {
		k := sim.NewKernel()
		cfgA := nic.DefaultConfig("a")
		cfgA.PayloadRate = units.STS12cPayload
		a := station(t, k, cfgA)
		c := station(t, k, nic.DefaultConfig("c")) // 155 edge station
		sw := NewSwitch(k, "sw", 2, units.STS12cPayload, 32, atm.NewPool(0), nil)
		sw.SetPortRate(1, units.STS3cPayload)
		a.AttachSink(sw.Port(0))
		sw.Port(1).AttachSink(c)
		sw.SetRoute(0, vc(1), 1, vc(1), RouteOptions{Class: tm.UBR})
		a.OpenVC(vc(1))
		c.OpenVC(vc(1))
		if paceCellsPerSec > 0 {
			a.SetPeakCellRate(vc(1), paceCellsPerSec)
		}
		got := uint64(0)
		c.OnReceive(func(nic.Delivered) { got++ })
		deadline := sim.Time(10 * sim.Millisecond)
		greedy(k, a, vc(1), 9180, deadline, 3)
		k.RunUntil(deadline + sim.Time(20*sim.Millisecond))
		return sw.Stats().Dropped, got
	}
	greedyDrops, _ := run(0)
	if greedyDrops == 0 {
		t.Fatal("4:1 rate mismatch produced no switch drops")
	}
	// Paced to 300k cells/s (< 353k of STS-3c payload): clean.
	pacedDrops, pacedDelivered := run(300_000)
	if pacedDrops != 0 {
		t.Fatalf("paced flow still dropped %d at the slow port", pacedDrops)
	}
	if pacedDelivered == 0 {
		t.Fatal("paced flow delivered nothing")
	}
}

// mkCell builds a bare user cell for direct switch-input injection.
func mkCell(vci uint16, pt atm.PT, clp bool) *atm.Cell {
	return &atm.Cell{Header: atm.Header{Format: atm.UNI, VCI: vci, PT: pt, CLP: clp}}
}

func TestSwitchBroadcastRoute(t *testing.T) {
	k := sim.NewKernel()
	pool := atm.NewPool(0)
	reg := metrics.NewRegistry()
	sw := NewSwitch(k, "sw", 3, units.STS3cPayload, 16, pool, reg)
	var got1, got2 []*atm.Cell
	sw.Port(1).AttachSink(atm.SinkFunc(func(c *atm.Cell) { got1 = append(got1, c) }))
	sw.Port(2).AttachSink(atm.SinkFunc(func(c *atm.Cell) { got2 = append(got2, c) }))
	// Point-to-multipoint: one input VC replicated to two leaves with
	// different translations.
	sw.SetRoute(0, vc(5), 1, vc(50), RouteOptions{Class: tm.UBR, Append: true})
	sw.SetRoute(0, vc(5), 2, vc(70), RouteOptions{Class: tm.UBR, Append: true})
	in := sw.Port(0)
	in.DeliverCell(mkCell(5, atm.PTUserEnd, false))
	k.Run()
	if len(got1) != 1 || len(got2) != 1 {
		t.Fatalf("broadcast delivered %d/%d, want 1/1", len(got1), len(got2))
	}
	if got1[0].Header.VCI != 50 || got2[0].Header.VCI != 70 {
		t.Fatalf("leaf VCs %d/%d, want 50/70", got1[0].Header.VCI, got2[0].Header.VCI)
	}
	// Replication must clone: the two leaves hold distinct cells, the
	// replica drawn from the pool.
	if got1[0] == got2[0] {
		t.Fatal("broadcast leaves share one cell")
	}
	if gets, _, _ := pool.Stats(); gets != 1 {
		t.Fatalf("%d cells drawn from the pool, want the one replica", gets)
	}
	st := sw.Stats()
	if st.Broadcasts != 1 || st.Routed != 2 {
		t.Fatalf("stats %+v", st)
	}
	if reg.Counter("sw.broadcasts").Value() != 1 ||
		reg.Counter("sw.port1.routed").Value() != 1 ||
		reg.Counter("sw.port2.routed").Value() != 1 {
		t.Fatal("broadcast not visible in registry")
	}
}

// Every cell the switch discards returns to its pool.
func TestSwitchDiscardsRecycle(t *testing.T) {
	k := sim.NewKernel()
	pool := atm.NewPool(0)
	sw := NewSwitch(k, "sw", 2, units.STS3cPayload, 2, pool, nil)
	sw.SetRoute(0, vc(5), 1, vc(5), RouteOptions{Class: tm.UBR})
	sw.Port(1).AttachSink(atm.SinkFunc(pool.Put))
	in := sw.Port(0)
	in.DeliverCell(mkCell(9, atm.PTUserEnd, false)) // no route
	for i := 0; i < 5; i++ {
		in.DeliverCell(mkCell(5, atm.PTUserEnd, false)) // two queue, three overflow
	}
	k.Run()
	st := sw.Stats()
	if st.NoRoute != 1 || st.Dropped != 3 || st.Routed != 2 {
		t.Fatalf("stats %+v, want 1 unrouted, 3 dropped, 2 routed", st)
	}
	if _, puts, _ := pool.Stats(); puts != 6 {
		t.Fatalf("%d cells recycled, want all 6 (4 discarded, 2 consumed)", puts)
	}
}

func TestSwitchPriorityDrain(t *testing.T) {
	// UBR cells queued first, CBR cells second; the strict-priority drain
	// must still emit every CBR cell before any UBR cell.
	k := sim.NewKernel()
	sw := NewSwitch(k, "sw", 2, units.STS3cPayload, 16, atm.NewPool(0), nil)
	var order []uint16
	sw.Port(1).AttachSink(atm.SinkFunc(func(c *atm.Cell) { order = append(order, c.Header.VCI) }))
	sw.SetRoute(0, vc(1), 1, vc(1), RouteOptions{Class: tm.UBR})
	sw.SetRoute(0, vc(2), 1, vc(2), RouteOptions{Class: tm.CBR})
	in := sw.Port(0)
	for i := 0; i < 3; i++ {
		in.DeliverCell(mkCell(1, atm.PTUser0, false))
	}
	for i := 0; i < 2; i++ {
		in.DeliverCell(mkCell(2, atm.PTUser0, false))
	}
	k.Run()
	want := []uint16{2, 2, 1, 1, 1}
	if len(order) != len(want) {
		t.Fatalf("drained %d cells, want %d", len(order), len(want))
	}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("drain order %v, want %v", order, want)
		}
	}
}

func TestSwitchPolicerDiscards(t *testing.T) {
	// A back-to-back burst through a CBR policer: only the first cell of
	// the instantaneous burst conforms (CDVT 0), the rest are discarded
	// at the ingress, before routing.
	k := sim.NewKernel()
	reg := metrics.NewRegistry()
	sw := NewSwitch(k, "sw", 2, units.STS3cPayload, 64, atm.NewPool(0), reg)
	delivered := 0
	sw.Port(1).AttachSink(atm.SinkFunc(func(*atm.Cell) { delivered++ }))
	sw.SetRoute(0, vc(3), 1, vc(3), RouteOptions{Class: tm.UBR})
	sw.SetPolicer(0, vc(3), tm.NewPolicer(tm.CBRContract(100_000, 0)))
	in := sw.Port(0)
	for i := 0; i < 10; i++ {
		in.DeliverCell(mkCell(3, atm.PTUser0, false))
	}
	k.Run()
	st := sw.Stats()
	if st.PolicedDiscarded != 9 || st.Routed != 1 || delivered != 1 {
		t.Fatalf("policer: %+v delivered=%d", st, delivered)
	}
	if reg.Counter("sw.policed_discard").Value() != 9 {
		t.Fatal("policed_discard counter not recorded")
	}
	if reg.VC(0, 3).Drops[metrics.DropPolicedDiscard] != 9 {
		t.Fatal("per-VC policed_discard not recorded")
	}
}

func TestSwitchPolicerTagsAndCLPThreshold(t *testing.T) {
	// Dual-bucket policer with tagging: cells beyond the MBS burst are
	// forwarded CLP=1; under congestion the CLP threshold then kills the
	// tagged cells first.
	k := sim.NewKernel()
	sw := NewSwitch(k, "sw", 2, units.STS3cPayload, 32, atm.NewPool(0), nil)
	var clpOut int
	delivered := 0
	sw.Port(1).AttachSink(atm.SinkFunc(func(c *atm.Cell) {
		delivered++
		if c.Header.CLP {
			clpOut++
		}
	}))
	sw.SetRoute(0, vc(4), 1, vc(4), RouteOptions{Class: tm.UBR})
	// PCR 1M c/s (T=1µs), SCR 100k (Ts=10µs), MBS 3 → a 3-cell burst at
	// PCR conforms, the 4th and 5th get tagged.
	pol := tm.NewPolicer(tm.VBRContract(1e6, 1e5, 3, 0))
	pol.TagSCR = true
	sw.SetPolicer(0, vc(4), pol)
	in := sw.Port(0)
	for i := 0; i < 5; i++ {
		c := mkCell(4, atm.PTUser0, false)
		k.At(sim.Time(i)*1000, func() { in.DeliverCell(c) })
	}
	k.Run()
	if clpOut != 2 || sw.Stats().PolicedTagged != 2 || delivered != 5 {
		t.Fatalf("tagged=%d stats=%+v delivered=%d", clpOut, sw.Stats(), delivered)
	}

	// CLP threshold: with the port occupancy above the threshold, an
	// arriving CLP=1 cell dies while CLP=0 cells still queue.
	k2 := sim.NewKernel()
	sw2 := NewSwitch(k2, "sw", 2, units.STS3cPayload, 8, atm.NewPool(0), nil)
	sw2.SetThresholds(1, 2, 0, 0)
	sw2.SetRoute(0, vc(6), 1, vc(6), RouteOptions{Class: tm.UBR})
	in2 := sw2.Port(0)
	in2.DeliverCell(mkCell(6, atm.PTUser0, true)) // occ 0 < 2: accepted
	for i := 0; i < 4; i++ {
		in2.DeliverCell(mkCell(6, atm.PTUser0, false))
	}
	in2.DeliverCell(mkCell(6, atm.PTUser0, true)) // occ 5 >= 2: dropped
	k2.Run()
	st := sw2.Stats()
	if st.CLPDropped != 1 || st.Routed != 5 {
		t.Fatalf("clp threshold: %+v", st)
	}
}

func TestSwitchEPD(t *testing.T) {
	// Frame A fills the queue past the EPD threshold; frame B, arriving
	// above it, is refused whole — every cell including its EOF.
	k := sim.NewKernel()
	sw := NewSwitch(k, "sw", 2, units.STS3cPayload, 10, atm.NewPool(0), nil)
	sw.SetThresholds(1, 0, 4, 0)
	var got []*atm.Cell
	sw.Port(1).AttachSink(atm.SinkFunc(func(c *atm.Cell) { got = append(got, c) }))
	sw.SetRoute(0, vc(7), 1, vc(7), RouteOptions{Class: tm.UBR})
	in := sw.Port(0)
	frame := func(n int) {
		for i := 0; i < n-1; i++ {
			in.DeliverCell(mkCell(7, atm.PTUser0, false))
		}
		in.DeliverCell(mkCell(7, atm.PTUserEnd, false))
	}
	frame(6) // admitted: occupancy 0 at frame start
	frame(4) // refused: occupancy 6 >= 4 at frame start
	k.Run()
	st := sw.Stats()
	if st.EPDFrames != 1 || st.EPDCells != 4 {
		t.Fatalf("epd stats %+v", st)
	}
	if len(got) != 6 {
		t.Fatalf("delivered %d cells, want 6 (frame A only)", len(got))
	}
	if !got[len(got)-1].Header.PT.EndOfFrame() {
		t.Fatal("frame A's EOF lost")
	}
}

func TestSwitchPPDForwardsEOF(t *testing.T) {
	// A frame longer than the buffer loses a cell mid-frame to tail drop;
	// PPD must drop the remainder but forward the final EOF cell so the
	// next frame still delineates.
	k := sim.NewKernel()
	sw := NewSwitch(k, "sw", 2, units.STS3cPayload, 6, atm.NewPool(0), nil)
	sw.SetThresholds(1, 0, 6, 0) // frame discard armed, EPD gate = full buffer
	var got []*atm.Cell
	sw.Port(1).AttachSink(atm.SinkFunc(func(c *atm.Cell) { got = append(got, c) }))
	sw.SetRoute(0, vc(8), 1, vc(8), RouteOptions{Class: tm.UBR})
	in := sw.Port(0)
	// Cells 1..9 back-to-back: 6 fill the queue, the 7th tail-drops and
	// trips PPD, 8 and 9 die as PPD. The EOF arrives after the port has
	// drained a few slots, so it finds room and must be forwarded.
	for i := 0; i < 9; i++ {
		in.DeliverCell(mkCell(8, atm.PTUser0, false))
	}
	ct := units.CellTime(units.STS3cPayload)
	eof := mkCell(8, atm.PTUserEnd, false)
	k.At(sim.Time(5*ct), func() { in.DeliverCell(eof) })
	k.Run()
	st := sw.Stats()
	if st.Dropped != 1 || st.PPDFrames != 1 || st.PPDCells != 2 {
		t.Fatalf("ppd stats %+v", st)
	}
	if len(got) != 7 {
		t.Fatalf("delivered %d cells, want 7 (6 head + EOF)", len(got))
	}
	if !got[len(got)-1].Header.PT.EndOfFrame() {
		t.Fatal("PPD did not forward the EOF cell")
	}
}
