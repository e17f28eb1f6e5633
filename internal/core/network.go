package core

import (
	"fmt"
	"math"

	"repro/internal/atm"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/sonet"
	"repro/internal/sonetlink"
	"repro/internal/tm"
	"repro/internal/trace"
	"repro/internal/units"
)

// NetworkSpec declares a whole topology: endpoints, switches, the fibers
// between them, and the end-to-end virtual channel connections riding on
// top. NewNetwork builds it in one pass — endpoints, switch fabric, duplex
// links, per-hop routes with VCI translation, contract admission (CAC) at
// the source and at every switch output port, and registry instrumentation
// — and returns named handles for everything.
//
// Everything is resolved in spec order, so two builds of the same spec are
// event-for-event identical (the property the golden and parallel-sweep
// tests pin).
type NetworkSpec struct {
	Endpoints []EndpointSpec
	Switches  []SwitchSpec
	Links     []LinkSpec
	VCCs      []VCCSpec

	// TraceCapacity, when positive, gives every partition a flight recorder
	// of this many events, built on the partition's own kernel, and attaches
	// stage spans to every cell-port hop the builder wires: each endpoint's
	// TX FIFO, reassembler and delivery stages (none on a PerCell endpoint,
	// whose host-SAR board records nothing), each switch output queue,
	// and both directions of every fiber (nodes "<link>.fwd" / "<link>.rev";
	// framed links use sonetlink's "link.<src>" naming and register during
	// link construction). Stages register in spec order, so two builds of
	// the same spec produce identical stage tables and event streams. Read
	// the recorder with Network.Recorder, or the whole-run trace with
	// Network.TraceEvents.
	TraceCapacity int

	// Shards > 1 requests a partitioned conservative-parallel build: the
	// topology is split into partitions — each with its own kernel, metrics
	// registry, trace recorder and cell pool — advanced in lock-step windows
	// by a sim.Group, with every cross-partition fiber's propagation delay
	// declared as lookahead. Deliveries, merged metrics and merged traces
	// are byte-identical to the serial build (the golden tests pin this).
	// The shard count is clamped to the number of partitionable units
	// (framed and zero-delay links never cross partitions; see
	// partition.go), and a plan of one partition is the serial build.
	Shards int

	// Partitions pins the node→partition assignment explicitly, overriding
	// the default endpoint/switch-cluster split: each inner slice names the
	// nodes of one partition. Every declared node must appear exactly once,
	// and no framed or zero-delay link may cross groups. It builds
	// len(Partitions) partitions and overrides Shards.
	Partitions [][]string
}

// EndpointSpec is one workstation + interface.
type EndpointSpec struct {
	Name    string
	Options Options
}

// SwitchSpec is one output-queued switch.
type SwitchSpec struct {
	Name string
	// Ports is the port count.
	Ports int
	// Rate is the port drain rate (default Rate155).
	Rate units.BitRate
	// QueueDepth is the shared per-port output buffer in cells (default 64).
	QueueDepth int
	// AISPeriod arms F5 fault management: while an input port's fiber is
	// down, the switch inserts AIS downstream on every route that port
	// feeds, once per period. Zero disables generation.
	AISPeriod sim.Duration
	// EFCIThreshold arms forward congestion marking on every output port:
	// a user cell enqueued while the port holds at least this many cells
	// gets its EFCI bit set (netsim.Switch.SetThresholds). Zero disables.
	EFCIThreshold int
	// ERICA arms per-output-port explicit-rate ABR feedback on every port:
	// the switch measures ABR load each averaging interval and stamps a
	// max-min fair rate into backward RM cells. Nil disables.
	ERICA *netsim.ERICAConfig
}

// NodeRef names one end of a link: an endpoint (Port ignored) or a switch
// port.
type NodeRef struct {
	Node string
	Port int
}

// LinkSpec is one duplex fiber. The forward direction is A→B.
type LinkSpec struct {
	Name string
	A, B NodeRef
	// DistanceKm sets propagation delay at 5 µs/km.
	DistanceKm float64
	// Delay overrides DistanceKm with an explicit propagation delay.
	Delay       sim.Duration
	LossProb    float64
	CorruptProb float64
	// Seed drives fault injection; the two directions derive independent
	// streams from it (2·Seed+1 forward, 2·Seed+2 reverse).
	Seed uint64
	// Framed carries this fiber through the full SONET physical layer
	// (sonetlink.Connect: framing, scrambling, HEC delineation) instead of
	// the cell-granular phy.CellLink shortcut. Framed links join two
	// endpoints directly — switch ports speak cells, not frames — and the
	// endpoints' payload rate selects STS-3c or STS-12c framing. Faults are
	// bit-granular on a framed link: set BitErrProb, not LossProb or
	// CorruptProb (the builder rejects the mismatch).
	Framed bool
	// BitErrProb is the per-frame probability of one random line bit error
	// (framed links only).
	BitErrProb float64
}

// VCCSpec is one end-to-end virtual channel connection between two
// endpoints. The builder routes it hop by hop (shortest path by spec order,
// or the explicit Via switch list), allocates a per-hop VC on every fiber
// (preferring the requested VC, incrementing the VCI past collisions),
// installs the translation routes, and admits the contract at the source
// interface and at every switch output port along the path.
type VCCSpec struct {
	Name     string
	From, To string
	// VC is the requested first-hop VC (zero: VPI 0, VCI 100).
	VC atm.VC
	// Contract is the traffic contract admitted at every hop; the zero
	// value means best-effort UBR at the source's line rate.
	Contract tm.TrafficContract
	// Shape paces the source interface to the contract (GCRA shaping).
	Shape bool
	// Duplex installs the reverse path too, with the same per-hop VCs.
	Duplex bool
	// Via pins the switch path instead of shortest-path routing.
	Via []string
	// ABR arms closed-loop rate control: the admitted contract is derived
	// from the parameters (class ABR, PCR ceiling, MCR reservation), the
	// source paces at a live ACR steered by backward RM cells, and the
	// destination turns forward RM cells around. Requires Duplex (the
	// feedback path) and supersedes Contract and Shape.
	ABR *tm.ABRParams
}

// Link is the built form of a LinkSpec: the two directed cell pipes, or the
// SONET-framed duplex connection when the spec set Framed.
type Link struct {
	Name string
	// Fwd carries A→B, Rev carries B→A. Both are nil on a framed link.
	Fwd, Rev *phy.CellLink
	// Framed is the SONET-layer connection (nil on cell-granular links);
	// its halves expose Fail/Restore and per-direction framing stats.
	Framed *sonetlink.Link

	a, b    NodeRef
	usedVCs map[atm.VC]bool
}

// VCCHop describes one switch traversal of a built VCC.
type VCCHop struct {
	Switch     *netsim.Switch
	SwitchName string
	InPort     int
	OutPort    int
	// InVC is the VC the cells carry arriving at InPort; OutVC is what
	// they are translated to on the way out.
	InVC, OutVC atm.VC
}

// VCC is the built form of a VCCSpec.
type VCC struct {
	Name         string
	Source, Dest *Endpoint
	// SourceVC is the VC the source transmits on; DestVC is the VC the
	// destination receives on (they differ when hops translate).
	SourceVC, DestVC atm.VC
	Contract         tm.TrafficContract
	Hops             []VCCHop
}

// Network is a built topology.
type Network struct {
	// One world per partition of the plan; a serial build is the
	// one-partition case. With more than one, the group drives the worlds'
	// kernels in lock-step.
	worlds  []world
	group   *sim.Group     // nil with one partition
	shardOf map[string]int // node → index into worlds; nil maps every node to 0

	endpoints map[string]*Endpoint
	switches  map[string]*netsim.Switch
	swSpecs   map[string]SwitchSpec
	links     map[string]*Link
	vccs      map[string]*VCC

	adj     map[string][]netEdge
	srcCAC  map[string]*tm.CAC  // per-endpoint access-link admission
	portCAC map[portKey]*tm.CAC // per switch output port
	epLink  map[string]string   // endpoint → the one link it is on
}

// world is one partition's simulation state: the kernel its nodes run on,
// the registry their instruments register in, the flight recorder their
// stages record on (nil without TraceCapacity) and the cell pool their
// links and switches draw from.
type world struct {
	k    *sim.Kernel
	reg  *metrics.Registry
	rec  *trace.Recorder
	pool *atm.Pool
}

// newKernel builds every partition's kernel. Tests swap in
// sim.NewHeapKernel to check the builder depends on no scheduling property
// of the timing wheel.
var newKernel = sim.NewKernel

// netEdge is one directed use of a link.
type netEdge struct {
	l        *Link
	from, to string
	fromPort int
	toPort   int
	fwd      bool // true when from == l.a.Node
}

type portKey struct {
	sw   string
	port int
}

// NewNetwork builds the declared topology. Errors name the offending spec
// entry; a VCC admission failure aborts the build (use AddVCC after a
// successful build to probe admission).
func NewNetwork(spec NetworkSpec) (*Network, error) {
	if err := checkGeometry(spec); err != nil {
		return nil, err
	}
	n := &Network{
		endpoints: make(map[string]*Endpoint),
		switches:  make(map[string]*netsim.Switch),
		swSpecs:   make(map[string]SwitchSpec),
		links:     make(map[string]*Link),
		vccs:      make(map[string]*VCC),
		adj:       make(map[string][]netEdge),
		srcCAC:    make(map[string]*tm.CAC),
		portCAC:   make(map[portKey]*tm.CAC),
		epLink:    make(map[string]string),
	}
	plan, err := planPartitions(spec)
	if err != nil {
		return nil, err
	}
	n.shardOf = plan.of
	n.worlds = make([]world, plan.shards)
	kernels := make([]*sim.Kernel, plan.shards)
	for i := range n.worlds {
		w := world{k: newKernel(), reg: metrics.NewRegistry(), pool: atm.NewPool(0)}
		if spec.TraceCapacity > 0 {
			w.rec = trace.NewRecorder(w.k, spec.TraceCapacity)
		}
		n.worlds[i], kernels[i] = w, w.k
	}
	if len(kernels) > 1 {
		n.group = sim.NewGroup(kernels)
	}
	for _, es := range spec.Endpoints {
		if es.Name == "" {
			return nil, fmt.Errorf("core: endpoint with empty name")
		}
		if n.known(es.Name) {
			return nil, fmt.Errorf("core: duplicate node name %q", es.Name)
		}
		w := n.worldOf(es.Name)
		ep, err := newEndpoint(w.k, es.Name, es.Options, w.reg, w.pool)
		if err != nil {
			return nil, fmt.Errorf("core: endpoint %q: %w", es.Name, err)
		}
		n.endpoints[es.Name] = ep
	}
	for _, ss := range spec.Switches {
		if ss.Name == "" {
			return nil, fmt.Errorf("core: switch with empty name")
		}
		if n.known(ss.Name) {
			return nil, fmt.Errorf("core: duplicate node name %q", ss.Name)
		}
		if ss.Rate == 0 {
			ss.Rate = Rate155
		}
		if ss.QueueDepth == 0 {
			ss.QueueDepth = 64
		}
		w := n.worldOf(ss.Name)
		sw := netsim.NewSwitch(w.k, ss.Name, ss.Ports, ss.Rate, ss.QueueDepth, w.pool, w.reg)
		sw.AISPeriod = ss.AISPeriod
		if ss.EFCIThreshold > 0 {
			for p := 0; p < ss.Ports; p++ {
				sw.SetThresholds(p, 0, 0, ss.EFCIThreshold)
			}
		}
		if ss.ERICA != nil {
			for p := 0; p < ss.Ports; p++ {
				sw.EnableERICA(p, *ss.ERICA)
			}
		}
		n.switches[ss.Name] = sw
		n.swSpecs[ss.Name] = ss
	}
	usedPorts := make(map[portKey]string)
	for _, ls := range spec.Links {
		if ls.Name == "" {
			return nil, fmt.Errorf("core: link with empty name")
		}
		if _, dup := n.links[ls.Name]; dup {
			return nil, fmt.Errorf("core: duplicate link name %q", ls.Name)
		}
		for _, ref := range []NodeRef{ls.A, ls.B} {
			if !n.known(ref.Node) {
				return nil, fmt.Errorf("core: link %q references unknown node %q", ls.Name, ref.Node)
			}
			if _, isEp := n.endpoints[ref.Node]; isEp {
				if n.epLink[ref.Node] != "" {
					return nil, fmt.Errorf("core: endpoint %q on more than one link", ref.Node)
				}
				n.epLink[ref.Node] = ls.Name
				continue
			}
			ss := n.swSpecs[ref.Node]
			if ref.Port < 0 || ref.Port >= ss.Ports {
				return nil, fmt.Errorf("core: link %q: port %d out of range on switch %q",
					ls.Name, ref.Port, ref.Node)
			}
			pk := portKey{sw: ref.Node, port: ref.Port}
			if prev, taken := usedPorts[pk]; taken {
				return nil, fmt.Errorf("core: switch %q port %d on links %q and %q",
					ref.Node, ref.Port, prev, ls.Name)
			}
			usedPorts[pk] = ls.Name
		}
		delay := ls.Delay
		if delay == 0 {
			delay = phy.PropDelay(ls.DistanceKm)
		}
		if ls.Framed {
			l, err := n.buildFramedLink(ls, delay)
			if err != nil {
				return nil, err
			}
			n.links[ls.Name] = l
			n.adj[ls.A.Node] = append(n.adj[ls.A.Node], netEdge{
				l: l, from: ls.A.Node, to: ls.B.Node, fwd: true,
			})
			n.adj[ls.B.Node] = append(n.adj[ls.B.Node], netEdge{
				l: l, from: ls.B.Node, to: ls.A.Node, fwd: false,
			})
			continue
		}
		if ls.BitErrProb != 0 {
			return nil, fmt.Errorf("core: link %q: BitErrProb needs a Framed link (cell-granular fibers take LossProb/CorruptProb)", ls.Name)
		}
		// Forward half first, then reverse, each seeded from the link seed.
		// Each half lives on its SENDING node's kernel: the send side (stats,
		// the loss/corruption rng draws, trace drops) always runs in the
		// source partition, so the rng sequence matches the serial projection.
		wA, wB := n.worldOf(ls.A.Node), n.worldOf(ls.B.Node)
		fwd := phy.NewCellLink(wA.k, delay, ls.Seed*2+1, n.consumer(ls.B), wA.pool)
		fwd.LossProb = ls.LossProb
		fwd.CorruptProb = ls.CorruptProb
		rev := phy.NewCellLink(wB.k, delay, ls.Seed*2+2, n.consumer(ls.A), wB.pool)
		rev.LossProb = ls.LossProb
		rev.CorruptProb = ls.CorruptProb
		n.producer(ls.A).AttachSink(fwd)
		n.producer(ls.B).AttachSink(rev)
		if wA != wB {
			// Cut link: deliveries and signal transitions cross via mailboxes,
			// declaring the propagation delay as the partitions' lookahead.
			// Arrival spans land on the destination partition's recorder
			// under the same stage names the attach loop below gives the
			// send side's drops, so merged traces equal a serial run's.
			fwd.SetBoundary(n.group.Mailbox(wA.k, wB.k, delay), wB.k, wB.rec, ls.Name+".fwd")
			rev.SetBoundary(n.group.Mailbox(wB.k, wA.k, delay), wA.k, wA.rec, ls.Name+".rev")
		}
		l := &Link{Name: ls.Name, Fwd: fwd, Rev: rev, a: ls.A, b: ls.B,
			usedVCs: make(map[atm.VC]bool)}
		n.links[ls.Name] = l
		n.adj[ls.A.Node] = append(n.adj[ls.A.Node], netEdge{
			l: l, from: ls.A.Node, to: ls.B.Node,
			fromPort: ls.A.Port, toPort: ls.B.Port, fwd: true,
		})
		n.adj[ls.B.Node] = append(n.adj[ls.B.Node], netEdge{
			l: l, from: ls.B.Node, to: ls.A.Node,
			fromPort: ls.B.Port, toPort: ls.A.Port, fwd: false,
		})
	}
	if spec.TraceCapacity > 0 {
		// Attach spans in spec order (endpoints, switches, links) so the
		// stage table — and with it every exported trace — is deterministic.
		// Each instance records on its own partition's recorder; link halves
		// record on their sending node's, with the arrival side of cut links
		// already wired by SetBoundary above.
		for _, es := range spec.Endpoints {
			if iface := n.endpoints[es.Name].iface; iface != nil {
				iface.SetRecorder(n.worldOf(es.Name).rec)
			}
		}
		for _, ss := range spec.Switches {
			n.switches[ss.Name].SetRecorder(n.worldOf(ss.Name).rec)
		}
		for _, ls := range spec.Links {
			l := n.links[ls.Name]
			if l.Framed != nil {
				continue // spans attached at sonetlink.Connect time
			}
			l.Fwd.SetRecorder(n.worldOf(ls.A.Node).rec, ls.Name+".fwd")
			l.Rev.SetRecorder(n.worldOf(ls.B.Node).rec, ls.Name+".rev")
		}
	}
	for _, vs := range spec.VCCs {
		if _, err := n.AddVCC(vs); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// checkGeometry rejects switch and link values no model can run, which
// would otherwise panic during the build or on the first cell. It runs
// before partition planning, which would take a negative delay for
// lookahead.
func checkGeometry(spec NetworkSpec) error {
	for _, ss := range spec.Switches {
		switch {
		case ss.Ports <= 0:
			return fmt.Errorf("core: switch %q: Ports %d, want at least 1", ss.Name, ss.Ports)
		case ss.QueueDepth < 0:
			return fmt.Errorf("core: switch %q: negative QueueDepth %d", ss.Name, ss.QueueDepth)
		case ss.Rate < 0:
			return fmt.Errorf("core: switch %q: negative Rate %v", ss.Name, ss.Rate)
		}
	}
	for _, ls := range spec.Links {
		if ls.Delay < 0 || ls.DistanceKm < 0 || math.IsNaN(ls.DistanceKm) {
			return fmt.Errorf("core: link %q: negative propagation delay (Delay %d ns, DistanceKm %v)", ls.Name, ls.Delay, ls.DistanceKm)
		}
	}
	return nil
}

// buildFramedLink wires one LinkSpec through the full SONET physical layer.
// Framed links join two endpoints directly (sonetlink speaks nic.Interface,
// and switch ports speak cells); the endpoints' payload rate selects the
// framing rate.
func (n *Network) buildFramedLink(ls LinkSpec, delay sim.Duration) (*Link, error) {
	if ls.LossProb != 0 || ls.CorruptProb != 0 {
		return nil, fmt.Errorf("core: framed link %q: faults are bit-granular on the SONET line — set BitErrProb, not LossProb/CorruptProb", ls.Name)
	}
	epA, okA := n.endpoints[ls.A.Node]
	epB, okB := n.endpoints[ls.B.Node]
	if !okA || !okB {
		return nil, fmt.Errorf("core: framed link %q must join two endpoints (switch ports are cell-granular)", ls.Name)
	}
	if epA.iface == nil || epB.iface == nil {
		return nil, fmt.Errorf("core: framed link %q: a per-cell endpoint cannot drive a SONET line", ls.Name)
	}
	var rate sonet.Rate
	switch pr := epA.iface.Config().PayloadRate; pr {
	case sonet.STS3c.PayloadRate():
		rate = sonet.STS3c
	case sonet.STS12c.PayloadRate():
		rate = sonet.STS12c
	default:
		return nil, fmt.Errorf("core: framed link %q: endpoint %q payload rate %v matches no SONET rate", ls.Name, ls.A.Node, pr)
	}
	// Framed links are never cut (the whole sonetlink world lives on one
	// kernel), so both endpoints share a partition and A's world serves the
	// link.
	w := n.worldOf(ls.A.Node)
	sl, err := sonetlink.Connect(w.k, sonetlink.Config{
		Rate:       rate,
		Delay:      delay,
		BitErrProb: ls.BitErrProb,
		Seed:       ls.Seed,
		Metrics:    w.reg,
		Recorder:   w.rec,
	}, epA.iface, epB.iface)
	if err != nil {
		return nil, fmt.Errorf("core: framed link %q: %w", ls.Name, err)
	}
	return &Link{Name: ls.Name, Framed: sl, a: ls.A, b: ls.B,
		usedVCs: make(map[atm.VC]bool)}, nil
}

// worldOf returns the world of the partition the named node lives in.
func (n *Network) worldOf(node string) *world { return &n.worlds[n.shardOf[node]] }

func (n *Network) known(name string) bool {
	if _, ok := n.endpoints[name]; ok {
		return true
	}
	_, ok := n.switches[name]
	return ok
}

// consumer returns the cell sink a link half delivers into at ref.
func (n *Network) consumer(ref NodeRef) atm.CellConsumer {
	if ep, ok := n.endpoints[ref.Node]; ok {
		return ep.board
	}
	return n.switches[ref.Node].Port(ref.Port)
}

// producer returns the producing stage a link half attaches to at ref.
func (n *Network) producer(ref NodeRef) atm.CellProducer {
	if ep, ok := n.endpoints[ref.Node]; ok {
		return ep.board
	}
	return n.switches[ref.Node].Port(ref.Port)
}

// Kernel exposes the simulation clock/scheduler. With more than one
// partition there is no single kernel — it panics; use NodeKernel to
// schedule work in a particular node's partition.
func (n *Network) Kernel() *sim.Kernel {
	if n.group != nil {
		panic("core: sharded network has one kernel per partition; use NodeKernel(name)")
	}
	return n.worlds[0].k
}

// Recorder returns the flight recorder (nil when the spec set no
// TraceCapacity). With more than one partition each records into its own
// recorder — it panics; use TraceEvents for the merged trace.
func (n *Network) Recorder() *trace.Recorder {
	if n.group != nil {
		panic("core: sharded network has one recorder per partition; use TraceEvents")
	}
	return n.worlds[0].rec
}

// NodeKernel returns the kernel the named node's events run on: its
// partition's kernel, which is the one kernel of a serial build. Drivers
// scheduling stimulus (traffic ticks, fault injection) against a node must
// use that node's kernel so the work lands in the right partition.
func (n *Network) NodeKernel(name string) *sim.Kernel {
	if !n.known(name) {
		panic("core: unknown node " + name)
	}
	return n.worldOf(name).k
}

// Shards reports the number of partitions the build produced (1 for a
// serial build).
func (n *Network) Shards() int { return len(n.worlds) }

// Metrics returns the telemetry registry: the live registry of a serial
// build. With more than one partition it merges the per-partition
// registries into a fresh snapshot (see metrics.Merge for why the merge is
// exact); call it after the run, not during.
func (n *Network) Metrics() *metrics.Registry {
	if n.group == nil {
		return n.worlds[0].reg
	}
	merged := metrics.NewRegistry()
	for _, w := range n.worlds {
		merged.Merge(w.reg)
	}
	return merged
}

// TraceEvents returns the run's flight-recorder events in canonical sorted
// order with stage names resolved — the whole-run trace, merged across the
// partitions' recorders. Empty when the spec set no TraceCapacity. No
// program reads it; the parallel goldens compare serial and sharded runs
// through it.
func (n *Network) TraceEvents() []trace.NamedEvent {
	recs := make([]*trace.Recorder, len(n.worlds))
	for i, w := range n.worlds {
		recs[i] = w.rec
	}
	return trace.MergeNamed(recs...)
}

// Run drains all scheduled work and returns the final simulated time. A
// serial build runs its kernel directly rather than through a one-kernel
// group, so a caller driving Kernel() between calls never sees a stale Now.
func (n *Network) Run() sim.Time {
	if n.group != nil {
		return n.group.Run()
	}
	return n.worlds[0].k.Run()
}

// RunUntil advances the simulation to t.
func (n *Network) RunUntil(t sim.Time) sim.Time {
	if n.group != nil {
		return n.group.RunUntil(t)
	}
	return n.worlds[0].k.RunUntil(t)
}

// RunFor advances the simulation by d.
func (n *Network) RunFor(d sim.Duration) sim.Time {
	if n.group != nil {
		return n.group.RunFor(d)
	}
	return n.worlds[0].k.RunFor(d)
}

// Close releases the partition worker goroutines of a sharded build (no-op
// on serial builds, and safe to call more than once). The network cannot be
// run afterwards.
func (n *Network) Close() {
	if n.group != nil {
		n.group.Close()
	}
}

// Endpoint returns the named endpoint; it panics on an unknown name (a
// spec/lookup mismatch is a programming error, not a runtime state).
func (n *Network) Endpoint(name string) *Endpoint {
	ep, ok := n.endpoints[name]
	if !ok {
		panic("core: unknown endpoint " + name)
	}
	return ep
}

// Switch returns the named switch for threshold/policer configuration.
func (n *Network) Switch(name string) *netsim.Switch {
	sw, ok := n.switches[name]
	if !ok {
		panic("core: unknown switch " + name)
	}
	return sw
}

// Link returns the named link handle.
func (n *Network) Link(name string) *Link {
	l, ok := n.links[name]
	if !ok {
		panic("core: unknown link " + name)
	}
	return l
}

// VCC returns the named connection handle.
func (n *Network) VCC(name string) *VCC {
	v, ok := n.vccs[name]
	if !ok {
		panic("core: unknown vcc " + name)
	}
	return v
}

// SourceCAC returns the admission controller guarding an endpoint's access
// link (created on first use).
func (n *Network) SourceCAC(endpoint string) *tm.CAC {
	ep := n.Endpoint(endpoint)
	cac := n.srcCAC[endpoint]
	if cac == nil {
		// The access CAC polices bandwidth only: a transmitting station's
		// burst buffering is host memory behind the segmenter, not the
		// cell FIFO, so the buffer budget is effectively unbounded here.
		// MBS reservations bite at the switch output queues instead.
		cac = tm.NewCAC(ep.board.Config().PayloadRate, 1<<20)
		n.srcCAC[endpoint] = cac
	}
	return cac
}

// PortCAC returns the admission controller guarding a switch output port
// (created on first use, budgeted at the switch's rate and queue depth).
func (n *Network) PortCAC(sw string, port int) *tm.CAC {
	pk := portKey{sw: sw, port: port}
	cac := n.portCAC[pk]
	if cac == nil {
		ss, ok := n.swSpecs[sw]
		if !ok {
			panic("core: unknown switch " + sw)
		}
		cac = tm.NewCAC(ss.Rate, ss.QueueDepth)
		n.portCAC[pk] = cac
	}
	return cac
}

// route finds the spec-order-deterministic path From→To: the explicit Via
// switch sequence when given, else breadth-first shortest path (endpoints
// other than the two ends cannot relay).
func (n *Network) route(vs VCCSpec) ([]netEdge, error) {
	if len(vs.Via) > 0 {
		seq := append([]string{vs.From}, vs.Via...)
		seq = append(seq, vs.To)
		var path []netEdge
		for i := 0; i+1 < len(seq); i++ {
			found := false
			for _, e := range n.adj[seq[i]] {
				if e.to == seq[i+1] {
					path = append(path, e)
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("core: vcc %q: no link %s→%s", vs.Name, seq[i], seq[i+1])
			}
		}
		return path, nil
	}
	type visit struct {
		node string
		via  []netEdge
	}
	seen := map[string]bool{vs.From: true}
	queue := []visit{{node: vs.From}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range n.adj[cur.node] {
			if seen[e.to] {
				continue
			}
			path := append(append([]netEdge(nil), cur.via...), e)
			if e.to == vs.To {
				return path, nil
			}
			if _, isEp := n.endpoints[e.to]; isEp {
				continue // endpoints terminate, they don't relay
			}
			seen[e.to] = true
			queue = append(queue, visit{node: e.to, via: path})
		}
	}
	return nil, fmt.Errorf("core: vcc %q: no path %s→%s", vs.Name, vs.From, vs.To)
}

// allocVC picks the connection's VC on one fiber: the requested VC if free,
// else the next free VCI above it.
func (l *Link) allocVC(want atm.VC) (atm.VC, error) {
	vc := want
	for l.usedVCs[vc] {
		if vc.VCI == ^uint16(0) {
			return vc, fmt.Errorf("core: link %q: VCI space exhausted above %v", l.Name, want)
		}
		vc.VCI++
	}
	l.usedVCs[vc] = true
	return vc, nil
}

// AddVCC routes, admits and opens one connection on the built network. On
// any failure every VCI claim, admission and VC end already taken for this
// connection is released and the network is left unchanged: switch routes
// are installed only once nothing else can fail.
func (n *Network) AddVCC(vs VCCSpec) (*VCC, error) {
	if vs.Name == "" {
		return nil, fmt.Errorf("core: vcc with empty name")
	}
	if _, dup := n.vccs[vs.Name]; dup {
		return nil, fmt.Errorf("core: duplicate vcc name %q", vs.Name)
	}
	src, ok := n.endpoints[vs.From]
	if !ok {
		return nil, fmt.Errorf("core: vcc %q: unknown source endpoint %q", vs.Name, vs.From)
	}
	dst, ok := n.endpoints[vs.To]
	if !ok {
		return nil, fmt.Errorf("core: vcc %q: unknown destination endpoint %q", vs.Name, vs.To)
	}
	// A per-cell board has no firmware to shape a VC or to turn RM cells
	// around.
	switch {
	case vs.ABR != nil && (src.iface == nil || dst.iface == nil):
		return nil, fmt.Errorf("core: vcc %q: ABR needs the programmable interface at both ends", vs.Name)
	case vs.Shape && src.iface == nil:
		return nil, fmt.Errorf("core: vcc %q: Shape needs the programmable interface at source %q", vs.Name, vs.From)
	}
	path, err := n.route(vs)
	if err != nil {
		return nil, err
	}
	var abr *tm.ABRParams
	if vs.ABR != nil {
		if !vs.Duplex {
			return nil, fmt.Errorf("core: vcc %q: ABR needs Duplex (backward RM cells ride the reverse path)", vs.Name)
		}
		p := *vs.ABR
		p.Normalize()
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("core: vcc %q: %w", vs.Name, err)
		}
		abr = &p
	}
	contract := vs.Contract
	if abr != nil {
		contract = abr.Contract()
	} else if contract.PCR == 0 {
		contract = tm.UBRContract(src.board.Config().PayloadRate)
	}
	if err := contract.Validate(); err != nil {
		return nil, fmt.Errorf("core: vcc %q: %w", vs.Name, err)
	}

	// Per-hop VC allocation: one VC per fiber, requested number preferred.
	// Every step below that fails undoes the steps before it, so a failed
	// call leaves the network as it found it.
	want := vs.VC
	if want == (atm.VC{}) {
		want = atm.VC{VPI: 0, VCI: 100}
	}
	type vcEnd struct {
		ep *Endpoint
		vc atm.VC
	}
	vcs := make([]atm.VC, 0, len(path))
	var admitted []*tm.CAC
	var opened []vcEnd
	release := func() {
		for _, end := range opened {
			end.ep.board.CloseVC(end.vc)
		}
		for _, cac := range admitted {
			cac.Release(contract)
		}
		for i, vc := range vcs {
			delete(path[i].l.usedVCs, vc)
		}
	}
	for _, e := range path {
		vc, err := e.l.allocVC(want)
		if err != nil {
			release()
			return nil, fmt.Errorf("core: vcc %q: %w", vs.Name, err)
		}
		vcs = append(vcs, vc)
	}

	// Admission: the source access link, then every switch output port the
	// forward direction drains through; duplex adds the mirror set.
	admit := func(cac *tm.CAC) error {
		if err := cac.Admit(contract); err != nil {
			return err
		}
		admitted = append(admitted, cac)
		return nil
	}
	if err := admit(n.SourceCAC(vs.From)); err != nil {
		release()
		return nil, fmt.Errorf("core: vcc %q: source %q: %w", vs.Name, vs.From, err)
	}
	for i := 1; i < len(path); i++ {
		sw := path[i].from // a switch: interior path node
		if err := admit(n.PortCAC(sw, path[i].fromPort)); err != nil {
			release()
			return nil, fmt.Errorf("core: vcc %q: switch %q port %d: %w",
				vs.Name, sw, path[i].fromPort, err)
		}
	}
	if vs.Duplex {
		if err := admit(n.SourceCAC(vs.To)); err != nil {
			release()
			return nil, fmt.Errorf("core: vcc %q: source %q: %w", vs.Name, vs.To, err)
		}
		for i := 0; i+1 < len(path); i++ {
			sw := path[i].to
			if err := admit(n.PortCAC(sw, path[i].toPort)); err != nil {
				release()
				return nil, fmt.Errorf("core: vcc %q: switch %q port %d: %w",
					vs.Name, sw, path[i].toPort, err)
			}
		}
	}

	v := &VCC{
		Name:     vs.Name,
		Source:   src,
		Dest:     dst,
		SourceVC: vcs[0],
		DestVC:   vcs[len(vcs)-1],
		Contract: contract,
	}
	for _, end := range []vcEnd{{src, v.SourceVC}, {dst, v.DestVC}} {
		if err := end.ep.board.OpenVC(end.vc); err != nil {
			release()
			return nil, fmt.Errorf("core: vcc %q: open %v at %q: %w", vs.Name, end.vc, end.ep.name, err)
		}
		opened = append(opened, end)
	}
	switch {
	case abr != nil:
		// SetABR installs the ACR shaper itself (starting at ICR), so the
		// Shape flag is subsumed.
		if err := src.iface.SetABR(v.SourceVC, *abr); err != nil {
			release()
			return nil, fmt.Errorf("core: vcc %q: abr: %w", vs.Name, err)
		}
	case vs.Shape:
		if err := src.iface.SetContract(v.SourceVC, contract); err != nil {
			release()
			return nil, fmt.Errorf("core: vcc %q: shape: %w", vs.Name, err)
		}
	}

	// Routes, once nothing can fail: each interior node translates (inPort,
	// inVC) → (outPort, outVC); duplex installs the mirror translation.
	for i := 0; i+1 < len(path); i++ {
		swName := path[i].to
		sw := n.switches[swName]
		inPort, outPort := path[i].toPort, path[i+1].fromPort
		inVC, outVC := vcs[i], vcs[i+1]
		sw.SetRoute(inPort, inVC, outPort, outVC, netsim.RouteOptions{Class: contract.Class})
		if vs.Duplex {
			sw.SetRoute(outPort, outVC, inPort, inVC, netsim.RouteOptions{Class: contract.Class})
		}
		v.Hops = append(v.Hops, VCCHop{
			Switch: sw, SwitchName: swName,
			InPort: inPort, OutPort: outPort,
			InVC: inVC, OutVC: outVC,
		})
	}

	n.vccs[vs.Name] = v
	return v, nil
}
