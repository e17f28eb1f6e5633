package experiments

import (
	"fmt"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/ip"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/trace"
	"repro/internal/units"
)

// E20 GEO path constants.
const (
	e20GeoDelay = 275 * sim.Millisecond // one-way GEO hop propagation
	e20HopDelay = sim.Millisecond       // terrestrial tail
	// Propagation RTT: each direction crosses one terrestrial hop and the
	// GEO hop.
	e20RTT    = 2 * (e20GeoDelay + e20HopDelay)
	e20RcvWnd = 128 << 10 // implicit window scale in use (tcp.MaxWindow ≥ this)
)

// E20FlowStat is one flow's outcome over the GEO link.
type E20FlowStat struct {
	Name        string
	GoodputBps  float64
	Delivered   uint64
	CwndBytes   int
	SRTT        sim.Duration
	Retransmits uint64
	Timeouts    uint64
}

// E20Result is the full GEO-delay run: per-flow outcomes, Jain's fairness
// index across them, and the congestion-window time series sampled from the
// registry (the flight-recorder path for cwnd traces).
type E20Result struct {
	Flows     []E20FlowStat
	JainIndex float64
	// WindowLimitBps is the window-limited throughput prediction
	// RcvWnd·8/RTT each flow should plateau at.
	WindowLimitBps float64
	Sampler        *trace.Sampler
}

// E20 runs TCP over a GEO satellite hop (~275 ms one-way): nFlows Reno
// flows from separate ground stations cross one switch onto the satellite
// link. The pipe's bandwidth-delay product (~10 MB at STS-3c) dwarfs any
// sane receive window, so after slow start — which alone needs seconds at
// this RTT — each flow plateaus at the window-limited rate RcvWnd/RTT, a
// few percent of the link: the classic case for large windows and window
// scale on satellite paths. The cwnd gauges are sampled on a fixed period
// into the returned time series; with generous switch buffering the trace
// climbs monotonically and stabilizes, with no loss events. Later flows
// start one RTT apart; Jain's index over the steady-state goodputs shows
// the window-limited plateau is insensitive to that stagger.
func E20(nFlows int, runTime sim.Duration) (E20Result, *report.Table) {
	if nFlows <= 0 {
		nFlows = 1
	}
	if runTime <= 0 {
		runTime = 10 * sim.Second
	}
	net, err := core.NewNetwork(core.NetworkSpec{
		Endpoints: []core.EndpointSpec{
			{Name: "a", Options: core.Options{InterleaveVCs: true}},
			{Name: "b", Options: core.Options{InterleaveVCs: true}},
			{Name: "c"},
		},
		Switches: []core.SwitchSpec{
			// Buffering is deliberately generous (slow-start bursts, not
			// steady overload, are the only transient): the point here is
			// the delay regime, not the discard policy.
			{Name: "sw", Ports: 3, Rate: units.STS3cPayload, QueueDepth: 4096},
		},
		Links: []core.LinkSpec{
			{Name: "a-sw", A: core.NodeRef{Node: "a"}, B: core.NodeRef{Node: "sw", Port: 0}, Delay: e20HopDelay, Seed: 51},
			{Name: "b-sw", A: core.NodeRef{Node: "b"}, B: core.NodeRef{Node: "sw", Port: 1}, Delay: e20HopDelay, Seed: 52},
			{Name: "geo", A: core.NodeRef{Node: "sw", Port: 2}, B: core.NodeRef{Node: "c"}, Delay: e20GeoDelay, Seed: 53},
		},
	})
	if err != nil {
		panic(err)
	}
	kern := net.Kernel()
	reg := net.Metrics()

	stacks := map[string]*ip.Stack{
		"a": ip.NewStack(net.Endpoint("a").Interface(), ip.LLCSnap, ip.Addr{10, 0, 1, 1}),
		"b": ip.NewStack(net.Endpoint("b").Interface(), ip.LLCSnap, ip.Addr{10, 0, 1, 2}),
		"c": ip.NewStack(net.Endpoint("c").Interface(), ip.LLCSnap, ip.Addr{10, 0, 1, 3}),
	}
	cfg := tcp.Config{
		MSS:    e19MSS,
		RcvWnd: e20RcvWnd,
		// RFC 6298's 1 s initial RTO would still fire before the first
		// 552 ms ACK returns only on loss; keep it above the path RTT.
		InitialRTO: 2 * e20RTT,
		MinRTO:     200 * sim.Millisecond,
	}
	flows := make([]*tcp.Flow, 0, nFlows)
	starts := make([]sim.Time, nFlows)
	for i := 0; i < nFlows; i++ {
		src := []string{"a", "b"}[i%2]
		vcc, err := net.AddVCC(core.VCCSpec{
			Name: fmt.Sprintf("geo%d", i),
			From: src, To: "c",
			VC:     atm.VC{VCI: uint16(201 + i)},
			Duplex: true,
		})
		if err != nil {
			panic(err)
		}
		f := tcp.NewFlow(kern, fmt.Sprintf("geo%d", i),
			stacks[src], vcc.SourceVC, stacks["c"], vcc.DestVC, cfg)
		flows = append(flows, f)
		start := sim.Duration(i) * e20RTT
		starts[i] = sim.Time(start)
		kern.After(start, func() { f.Start(0, nil) })
	}

	deadline := sim.Time(runTime)
	sampler := trace.NewSampler(kern, reg, 50*sim.Millisecond)
	sampler.Start(deadline)
	kern.RunUntil(deadline)

	res := E20Result{
		JainIndex:      1,
		WindowLimitBps: float64(e20RcvWnd) * 8 * float64(sim.Second) / float64(e20RTT),
		Sampler:        sampler,
	}
	var sum, sumSq float64
	for i, f := range flows {
		st := f.Sender.Stats()
		// Rate over the flow's own active window, so staggered starts
		// compare like for like.
		active := float64(deadline-starts[i]) / float64(sim.Second)
		gp := float64(f.Delivered()) * 8 / active
		res.Flows = append(res.Flows, E20FlowStat{
			Name:        f.Name,
			GoodputBps:  gp,
			Delivered:   f.Delivered(),
			CwndBytes:   f.Sender.Cwnd(),
			SRTT:        f.Sender.SRTT(),
			Retransmits: st.Retransmits,
			Timeouts:    st.Timeouts,
		})
		sum += gp
		sumSq += gp * gp
	}
	if nFlows > 1 && sumSq > 0 {
		res.JainIndex = sum * sum / (float64(nFlows) * sumSq)
	}
	for _, f := range flows {
		f.Stop()
	}
	kern.Run()

	tb := report.NewTable(
		fmt.Sprintf("E20: TCP over a GEO hop (%v one-way, %d flow(s), %v)", e20GeoDelay, nFlows, runTime),
		"flow", "goodput", "win-limit", "cwnd", "srtt", "retx", "timeouts")
	tb.Note = fmt.Sprintf("window-limited regime: BDP %.1f MB >> %d KiB window; Jain index %.4f",
		float64(units.STS3cPayload)*float64(e20RTT)/float64(sim.Second)/8/1e6,
		e20RcvWnd>>10, res.JainIndex)
	for _, fs := range res.Flows {
		tb.Row(fs.Name,
			fmt.Sprintf("%.2fM", fs.GoodputBps/1e6),
			fmt.Sprintf("%.2fM", res.WindowLimitBps/1e6),
			fmt.Sprintf("%d", fs.CwndBytes),
			fs.SRTT.String(),
			fmt.Sprintf("%d", fs.Retransmits),
			fmt.Sprintf("%d", fs.Timeouts))
	}
	return res, tb
}
