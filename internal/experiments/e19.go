package experiments

import (
	"fmt"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/experiments/runner"
	"repro/internal/ip"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/units"
)

// E19Point is one (buffer fraction, discard policy) TCP goodput measurement
// at the congested switch port.
type E19Point struct {
	BufferFrac  float64 // switch buffer / path BDP
	EPD         bool
	BufferCells int
	GoodputBps  float64 // aggregate TCP payload delivered / run time
	Efficiency  float64 // goodput / TCP-payload ceiling of the port
	Retransmits uint64
	Timeouts    uint64
	FastRetx    uint64
	TailDropped uint64
	EPDCells    uint64
	PPDCells    uint64
}

// e19 topology constants, shared with the tests' expectations. The MSS
// matches the satellite studies' 9180-byte IP MTU: at 192 cells per frame,
// a single stranded cell loss costs the congested port a couple hundred
// dead cell slots, which is the waste tail drop is punished for.
const (
	e19Flows      = 4
	e19MSS        = 9140 // 9180-byte IP MTU minus IP+TCP headers
	e19FrameCells = 192  // LLC/SNAP + IP + TCP + MSS = 9188 B payload under AAL5
	e19HopDelay   = 5 * sim.Millisecond
	e19RTT        = 4 * e19HopDelay // two hops each way, propagation only
)

// e19BDPCells is the bandwidth-delay product of the bottleneck path in
// cells: the reference the buffer sizes are fractions of.
func e19BDPCells() int {
	return int(units.CellRate(units.STS3cPayload) * float64(e19RTT) / float64(sim.Second))
}

// E19 reproduces the satellite-ATM working group's TCP-over-UBR result at
// terrestrial delay: four Reno flows from two stations converge on one
// switch output port whose buffer is swept as a fraction of the path's
// bandwidth-delay product. With blind tail drop, a cell lost mid-frame
// strands the rest of the frame in the receiver's reassembler where it
// merges into the next frame's CRC — every drop costs up to two frames plus
// the dead cells that still cross the congested port, and as the buffer
// shrinks below about one BDP the flows sink into timeout-driven collapse.
// Early/Partial Packet Discard drops whole frames at the same occupancy, so
// the surviving cells all reassemble and goodput holds near the port
// ceiling down to small fractions of the BDP.
func E19(fracs []float64, runTime sim.Duration) ([]E19Point, *report.Series) {
	if len(fracs) == 0 {
		fracs = []float64{0.25, 0.5, 1.0, 2.0}
	}
	if runTime <= 0 {
		runTime = 2 * sim.Second
	}
	type e19Case struct {
		epd  bool
		frac float64
	}
	var cases []e19Case
	for _, epd := range []bool{false, true} {
		for _, f := range fracs {
			cases = append(cases, e19Case{epd, f})
		}
	}
	pts := runner.Map(Parallelism(), len(cases), func(i int) E19Point {
		return runE19(cases[i].frac, cases[i].epd, runTime)
	})
	x := make([]float64, len(fracs))
	copy(x, fracs)
	sr := report.NewSeries("E19: TCP goodput efficiency vs switch buffer (xBDP) — tail drop vs EPD/PPD",
		"buffer_bdp", x)
	for _, epd := range []bool{false, true} {
		name := "tail-drop"
		if epd {
			name = "epd-ppd"
		}
		var y []float64
		for _, pt := range pts {
			if pt.EPD == epd {
				y = append(y, pt.Efficiency)
			}
		}
		sr.Add(name, y)
	}
	return pts, sr
}

func runE19(frac float64, epd bool, runTime sim.Duration) E19Point {
	depth := int(frac * float64(e19BDPCells()))
	if depth < e19FrameCells {
		depth = e19FrameCells
	}
	// EPD needs whole-frame headroom above its threshold; 1.5 frames keeps
	// an accepted frame from overrunning the buffer at full overload.
	epdThresh := depth - 3*e19FrameCells/2
	if epdThresh < e19FrameCells/2 {
		epdThresh = e19FrameCells / 2
	}
	net, err := core.NewNetwork(core.NetworkSpec{
		Endpoints: []core.EndpointSpec{
			{Name: "a", Options: core.Options{InterleaveVCs: true}},
			{Name: "b", Options: core.Options{InterleaveVCs: true}},
			{Name: "c"},
		},
		Switches: []core.SwitchSpec{
			{Name: "sw", Ports: 3, Rate: units.STS3cPayload, QueueDepth: depth},
		},
		Links: []core.LinkSpec{
			{Name: "a-sw", A: core.NodeRef{Node: "a"}, B: core.NodeRef{Node: "sw", Port: 0}, Delay: e19HopDelay, Seed: 41},
			{Name: "b-sw", A: core.NodeRef{Node: "b"}, B: core.NodeRef{Node: "sw", Port: 1}, Delay: e19HopDelay, Seed: 42},
			{Name: "sw-c", A: core.NodeRef{Node: "sw", Port: 2}, B: core.NodeRef{Node: "c"}, Delay: e19HopDelay, Seed: 43},
		},
	})
	if err != nil {
		panic(err)
	}
	kern := net.Kernel()
	if epd {
		net.Switch("sw").SetThresholds(2, 0, epdThresh, 0)
	}

	stacks := map[string]*ip.Stack{
		"a": ip.NewStack(net.Endpoint("a").Interface(), ip.LLCSnap, ip.Addr{10, 0, 0, 1}),
		"b": ip.NewStack(net.Endpoint("b").Interface(), ip.LLCSnap, ip.Addr{10, 0, 0, 2}),
		"c": ip.NewStack(net.Endpoint("c").Interface(), ip.LLCSnap, ip.Addr{10, 0, 0, 3}),
	}
	cfg := tcp.Config{
		MSS:        e19MSS,
		RcvWnd:     512 << 10,
		InitialRTO: 50 * sim.Millisecond,
	}
	flows := make([]*tcp.Flow, 0, e19Flows)
	for i := 0; i < e19Flows; i++ {
		src := []string{"a", "b"}[i%2]
		vcc, err := net.AddVCC(core.VCCSpec{
			Name: fmt.Sprintf("f%d", i),
			From: src, To: "c",
			VC:     atm.VC{VCI: uint16(101 + i)},
			Duplex: true,
		})
		if err != nil {
			panic(err)
		}
		f := tcp.NewFlow(kern, fmt.Sprintf("f%d", i),
			stacks[src], vcc.SourceVC, stacks["c"], vcc.DestVC, cfg)
		flows = append(flows, f)
		// Desynchronize the slow starts by a fraction of an RTT each so the
		// first overload isn't a single phase-locked burst.
		start := sim.Duration(i) * e19RTT / 4
		kern.After(start, func() { f.Start(0, nil) })
	}

	deadline := sim.Time(runTime)
	kern.RunUntil(deadline)
	var delivered uint64
	pt := E19Point{BufferFrac: frac, EPD: epd, BufferCells: depth}
	for _, f := range flows {
		delivered += f.Delivered()
		st := f.Sender.Stats()
		pt.Retransmits += st.Retransmits
		pt.Timeouts += st.Timeouts
		pt.FastRetx += st.FastRetransmits
		f.Stop()
	}
	kern.Run()

	pt.GoodputBps = units.ThroughputBps(int64(delivered), deadline)
	pt.Efficiency = pt.GoodputBps / sduCeilingBps(units.STS3cPayload, e19MSS, e19FrameCells)
	sws := net.Switch("sw").Stats()
	pt.TailDropped = sws.Dropped
	pt.EPDCells = sws.EPDCells
	pt.PPDCells = sws.PPDCells
	return pt
}

// String is used by atmbench's verbose output.
func (p E19Point) String() string {
	pol := "tail"
	if p.EPD {
		pol = "epd"
	}
	return fmt.Sprintf("buf=%.2fxBDP(%dc) %s eff=%.3f retx=%d to=%d fr=%d tail=%d epd=%d ppd=%d",
		p.BufferFrac, p.BufferCells, pol, p.Efficiency,
		p.Retransmits, p.Timeouts, p.FastRetx, p.TailDropped, p.EPDCells, p.PPDCells)
}
