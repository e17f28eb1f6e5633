package experiments

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/experiments/runner"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/tm"
	"repro/internal/units"
)

// E16Hop is one switch's contribution to the probe path: the residency of
// its downstream output port, read from the metrics registry the builder
// instrumented.
type E16Hop struct {
	Switch string
	Mean   sim.Duration
	P99    sim.Duration
	CDV    sim.Duration // p99 − p01 of port residency
}

// E16Point is one (hop count, line rate) measurement of multi-hop delay
// and cell delay variation.
type E16Point struct {
	Switches  int
	Rate      units.BitRate
	Admitted  int    // contracts the last hop's output-port CAC carries
	Delivered uint64 // probe frames that survived end to end
	E2EMean   sim.Duration
	E2ECDV    sim.Duration // p99 − p01 of end-to-end probe delay
	PerHop    []E16Hop
}

// E16 is the multi-hop CDV-accumulation experiment: a shaped CBR probe
// crosses 1..4 tandem switches, and every output port on its path also
// carries its own unshaped best-effort cross flow (up to ~85% of line
// rate; host-limited below that at 622 Mb/s). Each hop's output queue adds
// a variable wait, so the probe's cell delay variation grows with the hop
// count at 155 Mb/s — the effect that makes end-to-end CDV accounting (and
// per-hop CDVT budgets in traffic contracts) necessary in ATM networks —
// while the 622 Mb/s ports drain fast enough to absorb almost all of it.
// The whole topology — up to nine endpoints and four switches, per-hop VCI
// allocation and per-hop CAC admission — is declared through
// core.NewNetwork; per-hop delay comes from the builder-instrumented port
// residency histograms, so the experiment reads physics straight out of
// the metrics registry.
func E16(runTime sim.Duration) ([]E16Point, *report.Series) {
	if runTime <= 0 {
		runTime = 30 * sim.Millisecond
	}
	hops := []int{1, 2, 3, 4}
	rates := []units.BitRate{units.STS3cPayload, units.STS12cPayload}
	type e16Case struct {
		n    int
		rate units.BitRate
	}
	var cases []e16Case
	for _, rate := range rates {
		for _, n := range hops {
			cases = append(cases, e16Case{n, rate})
		}
	}
	pts := runner.Map(Parallelism(), len(cases), func(i int) E16Point {
		return runE16(cases[i].n, cases[i].rate, runTime)
	})
	x := make([]float64, len(hops))
	for i, n := range hops {
		x[i] = float64(n)
	}
	sr := report.NewSeries("E16: end-to-end CDV vs tandem switch count — shaped CBR probe through loaded hops",
		"switches", x)
	for _, rate := range rates {
		var y []float64
		for _, pt := range pts {
			if pt.Rate == rate {
				y = append(y, float64(pt.E2ECDV)/1000) // µs
			}
		}
		sr.Add(fmt.Sprintf("%v cdv-us", rate), y)
	}
	return pts, sr
}

func runE16(nSw int, rate units.BitRate, runTime sim.Duration) E16Point {
	const (
		probeVCI   = 100
		crossSDU   = 9180 // IP-MTU frames: 192 cells under AAL5
		probePCR   = 5_000
		crossShare = 0.85 // of the port cell rate, per loaded output port
		// The probe offers frames a little slower than 1/PCR. The NIC's
		// shaper re-times each cell from its actual emission (eligibility
		// plus the segmentation firmware's cycles), so a source driving at
		// exactly PCR accumulates an ever-growing shaper backlog — a source
		// artifact that would drown the per-hop CDV this experiment is
		// after. Real CBR sources under-drive their contract for the same
		// reason.
		probeInterval = 220 * sim.Microsecond
	)
	opts := core.Options{Rate: rate}
	spec := core.NetworkSpec{
		Endpoints: []core.EndpointSpec{
			{Name: "src", Options: opts},
			{Name: "dst", Options: opts},
		},
	}
	// Intra-run sharding (SetShards) splits this topology into partitions
	// run in parallel; the core golden tests pin the results byte-identical
	// to serial.
	spec.Shards = Shards()
	// Tandem chain: src → sw1 → … → swN → dst. Port 0 faces upstream,
	// port 1 downstream. Every switch gets its own cross-traffic feed on
	// port 2 (fresh arrival jitter at each hop — an upstream port's drain
	// clock perfectly smooths whatever it forwards, so without new
	// competition a tandem hop adds constant delay, not variation). Each
	// cross flow shares exactly one probe output port, then leaves at the
	// next switch's port 3 into a sink station; the last one terminates at
	// dst.
	for i := 1; i <= nSw; i++ {
		spec.Switches = append(spec.Switches, core.SwitchSpec{
			Name: fmt.Sprintf("sw%d", i), Ports: 4, Rate: rate, QueueDepth: 96,
		})
		spec.Endpoints = append(spec.Endpoints,
			core.EndpointSpec{Name: fmt.Sprintf("x%d", i), Options: opts})
		if i >= 2 {
			spec.Endpoints = append(spec.Endpoints,
				core.EndpointSpec{Name: fmt.Sprintf("sink%d", i), Options: opts})
		}
	}
	spec.Links = append(spec.Links, core.LinkSpec{
		Name: "src-sw1", A: core.NodeRef{Node: "src"},
		B: core.NodeRef{Node: "sw1", Port: 0}, Delay: 10_000, Seed: 60,
	})
	for i := 1; i < nSw; i++ {
		spec.Links = append(spec.Links, core.LinkSpec{
			Name:  fmt.Sprintf("sw%d-sw%d", i, i+1),
			A:     core.NodeRef{Node: fmt.Sprintf("sw%d", i), Port: 1},
			B:     core.NodeRef{Node: fmt.Sprintf("sw%d", i+1), Port: 0},
			Delay: 50_000, Seed: uint64(60 + i),
		})
	}
	lastSw := fmt.Sprintf("sw%d", nSw)
	spec.Links = append(spec.Links, core.LinkSpec{
		Name: "last-dst", A: core.NodeRef{Node: lastSw, Port: 1},
		B: core.NodeRef{Node: "dst"}, Delay: 10_000, Seed: 70,
	})
	for i := 1; i <= nSw; i++ {
		// Unequal access-fiber lengths stagger the feeds' cell-clock phases.
		spec.Links = append(spec.Links, core.LinkSpec{
			Name:  fmt.Sprintf("x%d-in", i),
			A:     core.NodeRef{Node: fmt.Sprintf("x%d", i)},
			B:     core.NodeRef{Node: fmt.Sprintf("sw%d", i), Port: 2},
			Delay: sim.Duration(3_000 + 1_700*i), Seed: uint64(70 + i),
		})
		if i >= 2 {
			spec.Links = append(spec.Links, core.LinkSpec{
				Name:  fmt.Sprintf("sink%d-out", i),
				A:     core.NodeRef{Node: fmt.Sprintf("sw%d", i), Port: 3},
				B:     core.NodeRef{Node: fmt.Sprintf("sink%d", i)},
				Delay: 2_000, Seed: uint64(80 + i),
			})
		}
	}

	// The probe: CBR, shaped at the source to its contract, admitted by the
	// CAC at every output port it crosses. The cross flows are best-effort
	// (zero contract → UBR), paced below line rate by the NIC scheduler;
	// cross i shares sw_i's downstream port with the probe and exits at the
	// next node.
	ct := units.CellTime(rate)
	spec.VCCs = []core.VCCSpec{
		{Name: "probe", From: "src", To: "dst", VC: atm.VC{VCI: probeVCI},
			Contract: tm.CBRContract(probePCR, 8*ct), Shape: true},
	}
	for i := 1; i <= nSw; i++ {
		to := fmt.Sprintf("sink%d", i+1)
		if i == nSw {
			to = "dst"
		}
		spec.VCCs = append(spec.VCCs, core.VCCSpec{
			Name: fmt.Sprintf("cross%d", i), From: fmt.Sprintf("x%d", i), To: to,
			VC: atm.VC{VCI: uint16(200 + i)},
		})
	}
	net, err := core.NewNetwork(spec)
	if err != nil {
		panic(err)
	}
	defer net.Close()
	deadline := sim.Time(runTime)

	// All stimulus is scheduled via NodeKernel so it lands in the right
	// partition on sharded builds (on serial builds NodeKernel returns the
	// one shared kernel and nothing changes).
	portCell := units.CellRate(rate)
	for i := 1; i <= nSw; i++ {
		v := net.VCC(fmt.Sprintf("cross%d", i))
		src := v.Source
		if err := src.SetPeakCellRate(v.SourceVC, crossShare*portCell); err != nil {
			panic(err)
		}
		core.NewSource(src, v.SourceVC, crossSDU, deadline).Start(4)
	}

	// Probe frames are one cell each and carry their departure time in the
	// first eight payload bytes, so end-to-end delay needs no FIFO matching
	// and survives any loss. The sample is taken where the last fiber meets
	// dst's NIC — the network boundary — because the last cross flow also
	// terminates at dst, and measuring after reassembly would fold dst's
	// host-side queueing (a receiver artifact, identical at every hop count)
	// into the network CDV under study.
	probe := net.VCC("probe")
	dstKern := net.NodeKernel("dst")
	dstIface := net.Endpoint("dst").Interface()
	var samples []sim.Duration
	net.Link("last-dst").Fwd.AttachSink(atm.SinkFunc(func(c *atm.Cell) {
		if c.Header.VC() == probe.DestVC {
			t0 := sim.Time(binary.BigEndian.Uint64(c.Payload[:8]))
			samples = append(samples, sim.Duration(dstKern.Now()-t0))
		}
		dstIface.DeliverCell(c)
	}))
	srcKern := net.NodeKernel("src")
	src := net.Endpoint("src")
	var tick func()
	tick = func() {
		if srcKern.Now() > deadline {
			return
		}
		payload := make([]byte, 40)
		binary.BigEndian.PutUint64(payload[:8], uint64(srcKern.Now()))
		src.Send(probe.SourceVC, payload, nil)
		srcKern.After(probeInterval, tick)
	}
	tick()
	net.RunUntil(deadline)
	net.Run()

	pt := E16Point{
		Switches:  nSw,
		Rate:      rate,
		Admitted:  net.PortCAC(lastSw, 1).Admitted(),
		Delivered: uint64(len(samples)),
	}
	pt.E2EMean, pt.E2ECDV = delayStats(samples)
	reg := net.Metrics()
	for i := 1; i <= nSw; i++ {
		h := reg.Histogram(fmt.Sprintf("sw%d.port1.residency", i))
		pt.PerHop = append(pt.PerHop, E16Hop{
			Switch: fmt.Sprintf("sw%d", i),
			Mean:   h.Mean(),
			P99:    h.Quantile(0.99),
			CDV:    h.Quantile(0.99) - h.Quantile(0.01),
		})
	}
	return pt
}

// delayStats returns the mean and the p99−p01 spread of the samples.
func delayStats(samples []sim.Duration) (mean, cdv sim.Duration) {
	if len(samples) == 0 {
		return 0, 0
	}
	sorted := append([]sim.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum sim.Duration
	for _, s := range sorted {
		sum += s
	}
	q := func(p float64) sim.Duration {
		return sorted[int(p*float64(len(sorted)-1)+0.5)]
	}
	return sum / sim.Duration(len(sorted)), q(0.99) - q(0.01)
}

// String is used by atmbench's verbose output.
func (p E16Point) String() string {
	return fmt.Sprintf("hops=%d %v adm=%d n=%d e2e-mean=%v e2e-cdv=%v",
		p.Switches, p.Rate, p.Admitted, p.Delivered, p.E2EMean, p.E2ECDV)
}
