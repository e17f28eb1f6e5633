package bench

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/ip"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/sonet"
	"repro/internal/tcp"
	"repro/internal/tm"
	"repro/internal/units"
)

// Workload is one named input set. Every workload runs serially through the
// public API (core.NewNetwork, Endpoint.Send, Network.Run) and exercises the
// nic, aal and sim modules; each stresses a different layer besides.
type Workload struct {
	Name string
	// Reps per process are time-bounded (see Config); the simulated length
	// of one rep is fixed here, and Config.Scale shrinks it for tests.
	build func(b *builder) error
	// slice is the simulated time Run advances between two clock reads: a
	// few ms of wall time, so that each slice sees some quiet moment of the
	// host in at least one rep (see quietest).
	slice sim.Duration

	// Shape of the leaf microbenchmarks: the workload's SDU size on the
	// wire, its framing rate and its VC table occupancy.
	sduBytes int
	rate     sonet.Rate
	vcs      int

	// partitions, when set, is the explicit two-shard split the traced run
	// compares with the serial kernel and the default planner.
	partitions [][]string
}

// Workloads lists every workload in BENCHMARK.json order.
var Workloads = []*Workload{
	{Name: "lan_fabric", build: buildLANFabric, slice: sim.Millisecond, sduBytes: 9180, rate: sonet.STS3c, vcs: 3,
		partitions: [][]string{{"a1", "b1", "sw1", "a2", "b2", "sw2"}, {"a3", "b3", "sw3", "a4", "b4", "sw4"}}},
	// LLC/SNAP (8) + IPv4 (20) + TCP (20) headers on a full MSS.
	{Name: "wan_tcp", build: buildWANTCP, slice: 5 * sim.Millisecond, sduBytes: 8 + 20 + 20 + wanMSS,
		rate: sonet.STS3c, vcs: 4},
	{Name: "sonet_framed", build: buildSONETFramed, slice: 2 * sim.Millisecond, sduBytes: 9180, rate: sonet.STS3c, vcs: 2},
	{Name: "small_sdu_abr", build: buildSmallSDUABR, slice: 10 * sim.Millisecond, sduBytes: abrSDU,
		rate: sonet.STS12c, vcs: 3},
}

// Lookup returns the named workload.
func Lookup(name string) (*Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// rig is one built workload: the network plus the bench-owned traffic and
// the handles the checks and counters need.
type rig struct {
	net       *core.Network
	links     []core.LinkSpec
	isSwitch  map[string]bool
	endpoints []string
	sources   []*source
	checkers  []*checker
	receivers map[string]*receiver
	flows     []*tcp.Flow
	flowBytes uint64

	// Wall time of the bench's own build calls.
	newNetworkNs, addVCCNs int64
	vccCount               int
}

// builder carries one build's inputs: everything random is drawn from the
// seed, so the same seed builds the same workload.
type builder struct {
	seed   uint64
	scale  float64
	rng    *rand.Rand
	shard  func(*core.NetworkSpec) // nil: serial
	r      *rig
	nextID uint32
}

// newRig builds the workload for one rep; shard, when set, edits the spec
// into a sharded build.
func (w *Workload) newRig(seed uint64, scale float64, shard func(*core.NetworkSpec)) (*rig, error) {
	b := &builder{seed: seed, scale: scale, rng: rand.New(rand.NewPCG(seed, 0)), shard: shard,
		r: &rig{isSwitch: map[string]bool{}, receivers: map[string]*receiver{}}}
	if err := w.build(b); err != nil {
		if b.r.net != nil {
			b.r.net.Close()
		}
		return nil, fmt.Errorf("%s: build: %w", w.Name, err)
	}
	return b.r, nil
}

// dur scales a simulated duration.
func (b *builder) dur(d sim.Duration) sim.Duration { return sim.Duration(float64(d) * b.scale) }

// linkSeed derives the i-th fiber's fault-injection seed.
func (b *builder) linkSeed(i int) uint64 { return b.seed*1000 + uint64(i) }

// startJitter bounds the seeded start offset of every bench source.
const startJitter = 20 * sim.Microsecond

func (b *builder) jitter() sim.Duration { return sim.Duration(b.rng.Int64N(int64(startJitter))) }

// network builds the topology, then opens the VCCs one AddVCC at a time
// (exactly what NewNetwork does with spec.VCCs), timing both.
func (b *builder) network(spec core.NetworkSpec, vccs []core.VCCSpec) error {
	if b.shard != nil {
		b.shard(&spec)
	}
	r := b.r
	r.links = spec.Links
	for _, s := range spec.Switches {
		r.isSwitch[s.Name] = true
	}
	for _, e := range spec.Endpoints {
		r.endpoints = append(r.endpoints, e.Name)
	}
	t0 := time.Now()
	net, err := core.NewNetwork(spec)
	r.newNetworkNs = int64(time.Since(t0))
	if err != nil {
		return err
	}
	r.net = net
	t0 = time.Now()
	for _, vs := range vccs {
		if _, err := net.AddVCC(vs); err != nil {
			return err
		}
	}
	r.addVCCNs = int64(time.Since(t0))
	r.vccCount = len(vccs)
	return nil
}

// traffic arms a bench source on the named VCC and registers its checker
// at the destination endpoint.
func (b *builder) traffic(vcc string, size, window int, deadline sim.Time, l loop) {
	r := b.r
	v := r.net.VCC(vcc)
	p := newPayload(b.seed, b.nextID, size)
	b.nextID++
	k := r.net.NodeKernel(v.Source.Name())
	src := newSource(v.Source, k, v.SourceVC, p, window, deadline, l)
	k.After(b.jitter(), src.start)
	r.sources = append(r.sources, src)

	rx := r.receivers[v.Dest.Name()]
	if rx == nil {
		rx = &receiver{byVC: map[core.VC]*checker{}}
		r.receivers[v.Dest.Name()] = rx
		v.Dest.OnReceive(rx.deliver)
	}
	var next func()
	if l == onDelivery {
		next = src.sendFn
	}
	c := newChecker(p, next)
	rx.byVC[v.DestVC] = c
	r.checkers = append(r.checkers, c)
}

// lan_fabric: BenchmarkShardedTopology's spec run serially — four switch
// islands of two endpoints on 1 µs access fibers, chained by 50 µs trunks,
// greedy 9180-byte UBR both ways inside each island and a cross-island VCC
// paced to 5% of line rate into each island after the first. Every fiber
// delay sits inside the kernel's timing-wheel horizon and most cells cross
// a switch, so wheel dispatch, switch queues, phy and per-cell nic work
// dominate; there is no SONET framing and no overflow heap.
func buildLANFabric(b *builder) error {
	const islands = 4
	var spec core.NetworkSpec
	var vccs []core.VCCSpec
	node := func(kind string, i int) string { return fmt.Sprintf("%s%d", kind, i) }
	for i := 1; i <= islands; i++ {
		spec.Switches = append(spec.Switches, core.SwitchSpec{Name: node("sw", i), Ports: 4, QueueDepth: 96})
		spec.Endpoints = append(spec.Endpoints,
			core.EndpointSpec{Name: node("a", i)}, core.EndpointSpec{Name: node("b", i)})
		spec.Links = append(spec.Links,
			core.LinkSpec{Name: node("a", i) + "-in", A: core.NodeRef{Node: node("a", i)},
				B: core.NodeRef{Node: node("sw", i), Port: 0}, Delay: 1_000, Seed: b.linkSeed(10 + i)},
			core.LinkSpec{Name: node("b", i) + "-in", A: core.NodeRef{Node: node("b", i)},
				B: core.NodeRef{Node: node("sw", i), Port: 1}, Delay: 1_000, Seed: b.linkSeed(20 + i)})
		if i > 1 {
			spec.Links = append(spec.Links, core.LinkSpec{
				Name: node("sw", i-1) + "-" + node("sw", i),
				A:    core.NodeRef{Node: node("sw", i-1), Port: 2}, B: core.NodeRef{Node: node("sw", i), Port: 3},
				Delay: 50_000, Seed: b.linkSeed(30 + i)})
		}
		vccs = append(vccs,
			core.VCCSpec{Name: node("ab", i), From: node("a", i), To: node("b", i), VC: core.VC{VCI: uint16(100 + i)}},
			core.VCCSpec{Name: node("ba", i), From: node("b", i), To: node("a", i), VC: core.VC{VCI: uint16(120 + i)}})
		if i > 1 {
			vccs = append(vccs, core.VCCSpec{Name: node("x", i), From: node("a", i-1), To: node("b", i),
				VC: core.VC{VCI: uint16(140 + i)}})
		}
	}
	if err := b.network(spec, vccs); err != nil {
		return err
	}
	deadline := sim.Time(b.dur(50 * sim.Millisecond))
	for i := 1; i <= islands; i++ {
		b.traffic(node("ab", i), 9180, 4, deadline, onTransmit)
		b.traffic(node("ba", i), 9180, 4, deadline, onTransmit)
		if i > 1 {
			v := b.r.net.VCC(node("x", i))
			if err := v.Source.SetPeakCellRate(v.SourceVC, 0.05*units.CellRate(units.STS3cPayload)); err != nil {
				return err
			}
			b.traffic(node("x", i), 9180, 2, deadline, onTransmit)
		}
	}
	return nil
}

// wan_tcp constants, E19-shaped: four Reno flows with a 9140-byte MSS over
// LLC/SNAP and AAL5 from two hosts into one 155 Mb/s port over 5 ms fibers.
const (
	wanMSS      = 9140
	wanHopDelay = 5 * sim.Millisecond
	wanFlowMiB  = 3
)

// wan_tcp: every fiber is 19× the timing-wheel horizon, so every cell in
// flight sits in the kernel's overflow heap; TCP segment marshalling and the
// EPD drops at the half-BDP bottleneck buffer drive allocation and GC. Each
// flow carries a fixed byte count; the check is that every byte arrives.
func buildWANTCP(b *builder) error {
	const frameCells = 192 // LLC/SNAP + IPv4 + TCP + MSS under AAL5
	rtt := 4 * wanHopDelay
	bdp := int(units.CellRate(units.STS3cPayload) * float64(rtt) / float64(sim.Second))
	depth := bdp / 2
	spec := core.NetworkSpec{
		Endpoints: []core.EndpointSpec{
			{Name: "a", Options: core.Options{InterleaveVCs: true}},
			{Name: "b", Options: core.Options{InterleaveVCs: true}},
			{Name: "c"},
		},
		Switches: []core.SwitchSpec{{Name: "sw", Ports: 3, QueueDepth: depth}},
		Links: []core.LinkSpec{
			{Name: "a-sw", A: core.NodeRef{Node: "a"}, B: core.NodeRef{Node: "sw", Port: 0}, Delay: wanHopDelay, Seed: b.linkSeed(1)},
			{Name: "b-sw", A: core.NodeRef{Node: "b"}, B: core.NodeRef{Node: "sw", Port: 1}, Delay: wanHopDelay, Seed: b.linkSeed(2)},
			{Name: "sw-c", A: core.NodeRef{Node: "sw", Port: 2}, B: core.NodeRef{Node: "c"}, Delay: wanHopDelay, Seed: b.linkSeed(3)},
		},
	}
	const flows = 4
	var vccs []core.VCCSpec
	for i := 0; i < flows; i++ {
		vccs = append(vccs, core.VCCSpec{Name: fmt.Sprintf("f%d", i), From: []string{"a", "b"}[i%2], To: "c",
			VC: atm.VC{VCI: uint16(101 + i)}, Duplex: true})
	}
	if err := b.network(spec, vccs); err != nil {
		return err
	}
	net := b.r.net
	net.Switch("sw").SetThresholds(2, 0, depth-3*frameCells/2, 0)
	stacks := map[string]*ip.Stack{}
	for i, name := range []string{"a", "b", "c"} {
		stacks[name] = ip.NewStack(net.Endpoint(name).Interface(), ip.LLCSnap, ip.Addr{10, 0, 0, byte(i + 1)})
	}
	cfg := tcp.Config{MSS: wanMSS, RcvWnd: 512 << 10, InitialRTO: 50 * sim.Millisecond}
	b.r.flowBytes = uint64(float64(wanFlowMiB<<20) * b.scale)
	k := net.Kernel()
	for i, vs := range vccs {
		v := net.VCC(vs.Name)
		f := tcp.NewFlow(k, vs.Name, stacks[vs.From], v.SourceVC, stacks["c"], v.DestVC, cfg)
		b.r.flows = append(b.r.flows, f)
		// Slow starts staggered by a quarter RTT, as in E19, plus the seeded
		// jitter every bench source gets.
		bytes := b.r.flowBytes
		k.After(sim.Duration(i)*rtt/4+b.jitter(), func() { f.Start(bytes, nil) })
	}
	return nil
}

// sonet_framed: two duplex STS-3c endpoint pairs on SONET-framed fibers
// with a 1e-3 per-frame bit-error probability, greedy 9180-byte SDUs each
// way. The only workload that runs sonet/sonetlink framing, scrambling,
// HEC delineation and header correction; it has no switch and no heap.
func buildSONETFramed(b *builder) error {
	var spec core.NetworkSpec
	var vccs []core.VCCSpec
	for i := 1; i <= 2; i++ {
		x, y := fmt.Sprintf("p%da", i), fmt.Sprintf("p%db", i)
		spec.Endpoints = append(spec.Endpoints, core.EndpointSpec{Name: x}, core.EndpointSpec{Name: y})
		spec.Links = append(spec.Links, core.LinkSpec{Name: fmt.Sprintf("l%d", i),
			A: core.NodeRef{Node: x}, B: core.NodeRef{Node: y}, DistanceKm: 2,
			Framed: true, BitErrProb: 1e-3, Seed: b.linkSeed(i)})
		vccs = append(vccs,
			core.VCCSpec{Name: x + "-" + y, From: x, To: y, VC: core.VC{VCI: 100}},
			core.VCCSpec{Name: y + "-" + x, From: y, To: x, VC: core.VC{VCI: 200}})
	}
	if err := b.network(spec, vccs); err != nil {
		return err
	}
	deadline := sim.Time(b.dur(100 * sim.Millisecond))
	for _, vs := range vccs {
		b.traffic(vs.Name, 9180, 4, deadline, onTransmit)
	}
	return nil
}

// abrSDU is small_sdu_abr's SDU size: 40 bytes plus the AAL5 trailer fill
// exactly one cell.
const abrSDU = 40

// small_sdu_abr: E21-shaped — three ABR sources at 622 Mb/s (Nrm 32) into a
// 155 Mb/s port running ERICA and EFCI — but every SDU is one cell with 64
// outstanding per source. The same nic/aal layers as lan_fabric work per
// cell instead of per frame: one Send, reassembly and delivery per cell,
// plus per-cell tm shaping and RM-cell turnaround. One SDU per cell costs
// the hosts their per-packet overhead on every cell, so the three senders
// together outrun the one receiving host; the window is end to end.
func buildSmallSDUABR(b *builder) error {
	const nSrc = 3
	erica := netsim.ERICAConfig{TargetUtil: 0.9, Interval: 200 * sim.Microsecond}
	spec := core.NetworkSpec{
		Switches: []core.SwitchSpec{{Name: "sw", Ports: nSrc + 1, Rate: core.Rate622, QueueDepth: 512,
			EFCIThreshold: 32, ERICA: &erica}},
	}
	pcr := units.CellRate(core.Rate622)
	var vccs []core.VCCSpec
	for i := 1; i <= nSrc; i++ {
		name := fmt.Sprintf("s%d", i)
		spec.Endpoints = append(spec.Endpoints, core.EndpointSpec{Name: name, Options: core.Options{Rate: core.Rate622}})
		spec.Links = append(spec.Links, core.LinkSpec{Name: name + "-sw", A: core.NodeRef{Node: name},
			B: core.NodeRef{Node: "sw", Port: i - 1}, Delay: 50 * sim.Microsecond, Seed: b.linkSeed(i)})
		vccs = append(vccs, core.VCCSpec{Name: fmt.Sprintf("abr%d", i), From: name, To: "dst",
			VC: atm.VC{VCI: uint16(100 + i)}, Duplex: true,
			ABR: &tm.ABRParams{PCR: pcr, ICR: pcr / 16, Nrm: 32}})
	}
	spec.Endpoints = append(spec.Endpoints, core.EndpointSpec{Name: "dst", Options: core.Options{Rate: core.Rate155}})
	spec.Links = append(spec.Links, core.LinkSpec{Name: "sw-dst", A: core.NodeRef{Node: "sw", Port: nSrc},
		B: core.NodeRef{Node: "dst"}, Delay: 5 * sim.Microsecond, Seed: b.linkSeed(nSrc + 1)})
	if err := b.network(spec, vccs); err != nil {
		return err
	}
	b.r.net.Switch("sw").SetPortRate(nSrc, core.Rate155)
	deadline := sim.Time(b.dur(500 * sim.Millisecond))
	for _, vs := range vccs {
		b.traffic(vs.Name, abrSDU, 64, deadline, onDelivery)
	}
	return nil
}
