package netsim

import (
	"testing"

	"repro/internal/atm"
	"repro/internal/oam"
	"repro/internal/sim"
	"repro/internal/tm"
	"repro/internal/units"
)

// A VC with a policer but no route is policed first, then counted as
// no_route: the burst's first cell conforms and finds no route, the rest
// are discarded at the ingress.
func TestSwitchPolicerWithoutRoute(t *testing.T) {
	k := sim.NewKernel()
	sw := NewSwitch(k, "sw", 2, units.STS3cPayload, 64, atm.NewPool(0), nil)
	sw.SetRoute(0, vc(4), 1, vc(4), RouteOptions{Class: tm.UBR}) // another VC on the same port
	sw.SetPolicer(0, vc(3), tm.NewPolicer(tm.CBRContract(100_000, 0)))
	for i := 0; i < 5; i++ {
		sw.Port(0).DeliverCell(mkCell(3, atm.PTUser0, false))
	}
	k.Run()
	st := sw.Stats()
	if st.PolicedDiscarded != 4 || st.NoRoute != 1 || st.Routed != 0 {
		t.Fatalf("policed-only VC: %+v, want 4 policed discards, 1 no_route, 0 routed", st)
	}
}

// Setting a route, replacing it, or appending a leaf keeps the policer
// installed on the same (port, VC).
func TestSwitchRouteChangesKeepPolicer(t *testing.T) {
	k := sim.NewKernel()
	sw := NewSwitch(k, "sw", 3, units.STS3cPayload, 64, atm.NewPool(0), nil)
	var got1, got2 int
	sw.Port(1).AttachSink(atm.SinkFunc(func(*atm.Cell) { got1++ }))
	sw.Port(2).AttachSink(atm.SinkFunc(func(*atm.Cell) { got2++ }))
	sw.SetPolicer(0, vc(3), tm.NewPolicer(tm.CBRContract(100_000, 0)))
	burst := func() {
		for i := 0; i < 4; i++ {
			sw.Port(0).DeliverCell(mkCell(3, atm.PTUser0, false))
		}
		k.RunFor(sim.Millisecond) // the policer's bucket drains: the next burst's first cell conforms
	}
	sw.SetRoute(0, vc(3), 1, vc(5), RouteOptions{Class: tm.UBR})
	burst()
	sw.SetRoute(0, vc(3), 2, vc(6), RouteOptions{Class: tm.UBR}) // replaces the route to port 1
	burst()
	sw.SetRoute(0, vc(3), 1, vc(5), RouteOptions{Class: tm.UBR, Append: true})
	burst()
	st := sw.Stats()
	if st.PolicedDiscarded != 9 {
		t.Fatalf("PolicedDiscarded = %d after three 4-cell bursts, want 9", st.PolicedDiscarded)
	}
	if got1 != 2 || got2 != 2 {
		t.Fatalf("port 1 got %d cells, port 2 got %d; want 2 and 2", got1, got2)
	}
}

// Two input VCs translated onto one output VC share the output port's
// per-VC record: a frame begun by one continues with the other's cells
// (one EPD decision), and ERICA counts them as one active VC.
func TestSwitchMergedRoutesShareRecord(t *testing.T) {
	k := sim.NewKernel()
	sw := NewSwitch(k, "sw", 3, units.STS3cPayload, 64, atm.NewPool(0), nil)
	sw.SetThresholds(2, 0, 1, 0) // EPD refuses a frame that starts at occupancy >= 1
	sw.EnableERICA(2, ERICAConfig{Interval: 100 * sim.Microsecond})
	var got []*atm.Cell
	sw.Port(2).AttachSink(atm.SinkFunc(func(c *atm.Cell) { got = append(got, c) }))
	sw.SetRoute(0, vc(10), 2, vc(30), RouteOptions{Class: tm.ABR})
	sw.SetRoute(1, vc(20), 2, vc(30), RouteOptions{Class: tm.ABR})
	sw.SetRoute(0, vc(11), 2, vc(31), RouteOptions{Class: tm.ABR})

	// The frame on output VC 30 starts from port 0 at occupancy 0; its
	// next cell, from port 1, lands at occupancy 1 but is mid-frame.
	sw.Port(0).DeliverCell(mkCell(10, atm.PTUser0, false))
	sw.Port(1).DeliverCell(mkCell(20, atm.PTUserEnd, false))
	k.Run()
	if st := sw.Stats(); st.EPDCells != 0 || len(got) != 2 {
		t.Fatalf("merged frame: %d EPD cells, %d delivered; want 0 and 2", st.EPDCells, len(got))
	}
	e := sw.ports[2].erica
	if e.nActive != 1 {
		t.Fatalf("ERICA counts %d active VCs for two inputs merged onto one output VC, want 1", e.nActive)
	}
	sw.Port(0).DeliverCell(mkCell(11, atm.PTUserEnd, false)) // still within the first interval
	k.Run()
	if e.nActive != 2 {
		t.Fatalf("ERICA counts %d active VCs after a second output VC, want 2", e.nActive)
	}
}

// AIS generation on downed input ports visits routes in (input port, VPI,
// VCI) order, whatever order the routes were set in.
func TestSwitchAISRouteOrder(t *testing.T) {
	k := sim.NewKernel()
	sw := NewSwitch(k, "sw", 4, units.STS3cPayload, 64, atm.NewPool(0), nil)
	sw.AISPeriod = sim.Millisecond
	var order []atm.VC
	sw.Port(3).AttachSink(atm.SinkFunc(func(c *atm.Cell) {
		if typ, fn, ok := oam.Classify(&c.Payload); ok && typ == oam.TypeFaultMgmt && fn == oam.FuncAIS {
			order = append(order, c.Header.VC())
		}
	}))
	// Output VCI n+1000 marks the route from input (port, VCI n).
	routes := []struct {
		port int
		in   atm.VC
	}{
		{1, atm.VC{VPI: 0, VCI: 7}},
		{0, atm.VC{VPI: 2, VCI: 1}},
		{0, atm.VC{VPI: 0, VCI: 300}},
		{2, atm.VC{VPI: 0, VCI: 1}}, // port 2 stays up
		{1, atm.VC{VPI: 0, VCI: 3}},
		{0, atm.VC{VPI: 0, VCI: 100}},
		{0, atm.VC{VPI: 1, VCI: 5}},
	}
	for _, r := range routes {
		out := atm.VC{VPI: r.in.VPI, VCI: r.in.VCI + uint16(1000*(r.port+1))}
		sw.SetRoute(r.port, r.in, 3, out, RouteOptions{Class: tm.UBR})
	}
	sw.SetPolicer(0, atm.VC{VCI: 50}, tm.NewPolicer(tm.CBRContract(100_000, 0))) // no route: no AIS
	// Port 1's loss sends its batch at once; port 0 goes down before the
	// next period, whose batch covers both ports.
	sw.Port(1).SignalChange(false)
	sw.Port(0).SignalChange(false)
	k.RunFor(sim.Millisecond + sim.Millisecond/2)
	sw.Port(0).SignalChange(true)
	sw.Port(1).SignalChange(true)
	k.Run()
	want := []atm.VC{
		{VPI: 0, VCI: 2003}, {VPI: 0, VCI: 2007},
		{VPI: 0, VCI: 1100}, {VPI: 0, VCI: 1300}, {VPI: 1, VCI: 1005}, {VPI: 2, VCI: 1001},
		{VPI: 0, VCI: 2003}, {VPI: 0, VCI: 2007},
	}
	if len(order) != len(want) {
		t.Fatalf("AIS cells on %v, want %v", order, want)
	}
	for i, vc := range want {
		if order[i] != vc {
			t.Fatalf("AIS cell %d on %v, want %v (order %v)", i, order[i], vc, order)
		}
	}
}
