package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/atm"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tm"
	"repro/internal/trace"
	"repro/internal/units"
)

// parRun captures everything the parallel-vs-serial golden tests compare:
// every delivered SDU (merged across endpoints in (time, endpoint) order),
// the full metrics registry text, the canonical sorted trace-event stream
// (spans included: each carries its start), and the final simulated time.
type parRun struct {
	deliveries []string
	metrics    string
	events     []trace.NamedEvent
	final      sim.Time
	shards     int
}

// delivery is one recorded SDU arrival, tagged for the cross-endpoint merge.
type delivery struct {
	at   sim.Time
	ep   string
	line string
}

// collector gathers deliveries per endpoint. Each endpoint's slice is
// appended only from that endpoint's partition goroutine (OnReceive runs on
// the endpoint's kernel), and the map itself is fully built before the run
// starts — so no locking is needed, even under the race detector.
type collector struct {
	byEp map[string]*[]delivery
}

func newCollector() *collector { return &collector{byEp: make(map[string]*[]delivery)} }

// watch registers a recording OnReceive hook on the named endpoint.
func (c *collector) watch(net *Network, ep string) {
	slot := new([]delivery)
	c.byEp[ep] = slot
	name := ep
	net.Endpoint(ep).OnReceive(func(p Packet) {
		head := p.Data
		if len(head) > 4 {
			head = head[:4]
		}
		*slot = append(*slot, delivery{at: p.At, ep: name, line: fmt.Sprintf(
			"t=%d ep=%s vc=%v len=%d cells=%d head=%x", int64(p.At), name, p.VC, len(p.Data), p.Cells, head)})
	})
}

// merged flattens the per-endpoint logs into one deterministic order:
// stable-sorted by (time, endpoint), preserving each endpoint's own
// chronological order — a pure function of what was delivered where and
// when, independent of shard interleaving.
func (c *collector) merged() []string {
	var all []delivery
	for _, slot := range c.byEp {
		all = append(all, *slot...)
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].at != all[j].at {
			return all[i].at < all[j].at
		}
		return all[i].ep < all[j].ep
	})
	out := make([]string, len(all))
	for i, d := range all {
		out[i] = d.line
	}
	return out
}

// goldenRun builds mk()'s spec with Shards set to shards (0 builds it
// serially unless the spec pins Partitions), drives it, runs to completion
// and collects the comparison state. The drive callback must schedule
// stimulus via NodeKernel so it lands in the right partition.
func goldenRun(t *testing.T, mk func() NetworkSpec, shards int, drive func(net *Network, col *collector)) parRun {
	t.Helper()
	spec := mk()
	spec.Shards = shards
	spec.TraceCapacity = 1 << 16
	net, err := NewNetwork(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	col := newCollector()
	drive(net, col)
	final := net.Run()

	run := parRun{deliveries: col.merged(), final: final, shards: net.Shards()}
	var sb bytes.Buffer
	if err := net.Metrics().Snapshot().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	run.metrics = sb.String()
	run.events = net.TraceEvents()
	return run
}

// requireRunsIdentical pins the tentpole contract: a sharded run must be
// byte-identical to the serial reference — deliveries, registry, trace
// events and spans, final clock.
func requireRunsIdentical(t *testing.T, label string, serial, sharded parRun) {
	t.Helper()
	if sharded.final != serial.final {
		t.Errorf("%s: final time %d, serial %d", label, sharded.final, serial.final)
	}
	if len(sharded.deliveries) != len(serial.deliveries) {
		t.Fatalf("%s: delivered %d SDUs, serial %d", label, len(sharded.deliveries), len(serial.deliveries))
	}
	for i := range sharded.deliveries {
		if sharded.deliveries[i] != serial.deliveries[i] {
			t.Fatalf("%s delivery %d:\n  sharded: %s\n  serial:  %s", label, i, sharded.deliveries[i], serial.deliveries[i])
		}
	}
	if sharded.metrics != serial.metrics {
		t.Fatalf("%s: metrics registry diverges:\n--- sharded\n%s\n--- serial\n%s", label, sharded.metrics, serial.metrics)
	}
	if len(sharded.events) != len(serial.events) {
		t.Fatalf("%s: %d trace events, serial %d", label, len(sharded.events), len(serial.events))
	}
	for i := range sharded.events {
		if sharded.events[i] != serial.events[i] {
			t.Fatalf("%s trace event %d: sharded %+v, serial %+v", label, i, sharded.events[i], serial.events[i])
		}
	}
}

// TestParallelGoldenPair is the E5-shaped golden test: two endpoints on one
// lossy cell-granular fiber exchanging small SDUs in both directions. The
// default partitioner puts each endpoint in its own shard, so every cell
// crosses the boundary — deliveries, loss draws and trace spans must land
// on the same nanoseconds as the serial run.
func TestParallelGoldenPair(t *testing.T) {
	mk := func() NetworkSpec {
		return NetworkSpec{
			Endpoints: []EndpointSpec{{Name: "a"}, {Name: "b"}},
			Links: []LinkSpec{{
				Name: "ab", A: NodeRef{Node: "a"}, B: NodeRef{Node: "b"},
				Delay: 10_000, Seed: 9, LossProb: 0.02,
			}},
			VCCs: []VCCSpec{
				{Name: "fwd", From: "a", To: "b", VC: VC{VCI: 101}},
				{Name: "rev", From: "b", To: "a", VC: VC{VCI: 202}},
			},
		}
	}
	sizes := []int{1, 44, 45, 89, 512, 1000, 2048, 40, 4000}
	drive := func(net *Network, col *collector) {
		col.watch(net, "a")
		col.watch(net, "b")
		for i, size := range sizes {
			data := make([]byte, size)
			for j := range data {
				data[j] = byte(i + j)
			}
			if err := net.Endpoint("a").Send(net.VCC("fwd").SourceVC, data, nil); err != nil {
				t.Fatal(err)
			}
			if err := net.Endpoint("b").Send(net.VCC("rev").SourceVC, data, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	serial := goldenRun(t, mk, 0, drive)
	if len(serial.deliveries) == 0 {
		t.Fatal("serial run delivered nothing")
	}
	for _, shards := range []int{2, 4} {
		run := goldenRun(t, mk, shards, drive)
		if run.shards != 2 { // two endpoints, no switches: two units
			t.Fatalf("shards=%d: built %d partitions, want 2", shards, run.shards)
		}
		requireRunsIdentical(t, fmt.Sprintf("pair shards=%d", shards), serial, run)
	}
}

// TestParallelGoldenSwitchCongestion is the E15-shaped golden test: two
// senders congesting one switch output port, with seeded loss on an access
// fiber and a zero-delay link that forces the receiver into the switch's
// partition. Drop attribution under congestion must merge back exactly.
func TestParallelGoldenSwitchCongestion(t *testing.T) {
	mk := func() NetworkSpec {
		return NetworkSpec{
			Endpoints: []EndpointSpec{
				{Name: "a"}, {Name: "b"},
				{Name: "c", Options: Options{ReassemblyTimeout: sim.Millisecond}},
			},
			Switches: []SwitchSpec{{Name: "sw", Ports: 3, QueueDepth: 16}},
			Links: []LinkSpec{
				{Name: "a-sw", A: NodeRef{Node: "a"}, B: NodeRef{Node: "sw", Port: 0}, Delay: 1000, Seed: 25, LossProb: 0.01},
				{Name: "b-sw", A: NodeRef{Node: "b"}, B: NodeRef{Node: "sw", Port: 1}, Delay: 2400, Seed: 26},
				// Zero delay: uncuttable, so c shares the switch's partition.
				{Name: "sw-c", A: NodeRef{Node: "sw", Port: 2}, B: NodeRef{Node: "c"}, Seed: 27},
			},
			VCCs: []VCCSpec{
				{Name: "a-c", From: "a", To: "c", VC: VC{VCI: 101}},
				{Name: "b-c", From: "b", To: "c", VC: VC{VCI: 201}},
			},
		}
	}
	drive := func(net *Network, col *collector) {
		col.watch(net, "c")
		for i := 0; i < 10; i++ {
			data := make([]byte, 3000)
			for j := range data {
				data[j] = byte(i ^ j)
			}
			if err := net.Endpoint("a").Send(net.VCC("a-c").SourceVC, data, nil); err != nil {
				t.Fatal(err)
			}
			if err := net.Endpoint("b").Send(net.VCC("b-c").SourceVC, data, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	serial := goldenRun(t, mk, 0, drive)
	if !strings.Contains(serial.metrics, "drop") {
		t.Fatalf("congestion workload produced no drop rows:\n%s", serial.metrics)
	}
	for _, shards := range []int{2, 4} {
		run := goldenRun(t, mk, shards, drive)
		if run.shards < 2 { // units: a, b, sw+c
			t.Fatalf("shards=%d: built %d partitions", shards, run.shards)
		}
		requireRunsIdentical(t, fmt.Sprintf("congestion shards=%d", shards), serial, run)
	}
}

// e16ShapedSpec mirrors the E16 experiment topology: a shaped CBR probe
// through a chain of tandem switches, each loaded by its own best-effort
// cross flow. All inter-node fibers have real propagation delays, so the
// default partitioner can cut every access link.
func e16ShapedSpec(nSw int) NetworkSpec {
	opts := Options{}
	spec := NetworkSpec{
		Endpoints: []EndpointSpec{
			{Name: "src", Options: opts},
			{Name: "dst", Options: opts},
		},
	}
	for i := 1; i <= nSw; i++ {
		spec.Switches = append(spec.Switches, SwitchSpec{
			Name: fmt.Sprintf("sw%d", i), Ports: 4, QueueDepth: 96,
		})
		spec.Endpoints = append(spec.Endpoints,
			EndpointSpec{Name: fmt.Sprintf("x%d", i), Options: opts})
		if i >= 2 {
			spec.Endpoints = append(spec.Endpoints,
				EndpointSpec{Name: fmt.Sprintf("sink%d", i), Options: opts})
		}
	}
	spec.Links = append(spec.Links, LinkSpec{
		Name: "src-sw1", A: NodeRef{Node: "src"},
		B: NodeRef{Node: "sw1", Port: 0}, Delay: 10_000, Seed: 60,
	})
	for i := 1; i < nSw; i++ {
		spec.Links = append(spec.Links, LinkSpec{
			Name:  fmt.Sprintf("sw%d-sw%d", i, i+1),
			A:     NodeRef{Node: fmt.Sprintf("sw%d", i), Port: 1},
			B:     NodeRef{Node: fmt.Sprintf("sw%d", i+1), Port: 0},
			Delay: 50_000, Seed: uint64(60 + i),
		})
	}
	spec.Links = append(spec.Links, LinkSpec{
		Name: "last-dst", A: NodeRef{Node: fmt.Sprintf("sw%d", nSw), Port: 1},
		B: NodeRef{Node: "dst"}, Delay: 10_000, Seed: 70,
	})
	for i := 1; i <= nSw; i++ {
		spec.Links = append(spec.Links, LinkSpec{
			Name:  fmt.Sprintf("x%d-in", i),
			A:     NodeRef{Node: fmt.Sprintf("x%d", i)},
			B:     NodeRef{Node: fmt.Sprintf("sw%d", i), Port: 2},
			Delay: sim.Duration(3_000 + 1_700*i), Seed: uint64(70 + i),
		})
		if i >= 2 {
			spec.Links = append(spec.Links, LinkSpec{
				Name:  fmt.Sprintf("sink%d-out", i),
				A:     NodeRef{Node: fmt.Sprintf("sw%d", i), Port: 3},
				B:     NodeRef{Node: fmt.Sprintf("sink%d", i)},
				Delay: 2_000, Seed: uint64(80 + i),
			})
		}
	}
	ct := units.CellTime(units.STS3cPayload)
	spec.VCCs = []VCCSpec{
		{Name: "probe", From: "src", To: "dst", VC: atm.VC{VCI: 100},
			Contract: tm.CBRContract(5_000, 8*ct), Shape: true},
	}
	for i := 1; i <= nSw; i++ {
		to := fmt.Sprintf("sink%d", i+1)
		if i == nSw {
			to = "dst"
		}
		spec.VCCs = append(spec.VCCs, VCCSpec{
			Name: fmt.Sprintf("cross%d", i), From: fmt.Sprintf("x%d", i), To: to,
			VC: atm.VC{VCI: uint16(200 + i)},
		})
	}
	return spec
}

// e16Drive reproduces the experiment's stimulus against either build: cross
// sources on each x_i's kernel, the timestamped probe tick on src's, and a
// boundary tap at dst's NIC sampling end-to-end probe delay on dst's clock.
// Returned samples are appended only from dst's partition goroutine.
func e16Drive(t *testing.T, net *Network, col *collector, nSw int, deadline sim.Time) *[]string {
	t.Helper()
	col.watch(net, "dst")
	for i := 2; i <= nSw; i++ {
		col.watch(net, fmt.Sprintf("sink%d", i))
	}
	portCell := units.CellRate(units.STS3cPayload)
	for i := 1; i <= nSw; i++ {
		v := net.VCC(fmt.Sprintf("cross%d", i))
		if err := v.Source.SetPeakCellRate(v.SourceVC, 0.85*portCell); err != nil {
			t.Fatal(err)
		}
		NewSource(v.Source, v.SourceVC, 9180, deadline).Start(4)
	}
	probe := net.VCC("probe")
	dk := net.NodeKernel("dst")
	dstIface := net.Endpoint("dst").Interface()
	samples := new([]string)
	net.Link("last-dst").Fwd.AttachSink(atm.SinkFunc(func(c *atm.Cell) {
		if c.Header.VC() == probe.DestVC {
			t0 := sim.Time(binary.BigEndian.Uint64(c.Payload[:8]))
			*samples = append(*samples, fmt.Sprintf("t=%d delay=%d", int64(dk.Now()), int64(dk.Now()-t0)))
		}
		dstIface.DeliverCell(c)
	}))
	sk := net.NodeKernel("src")
	src := net.Endpoint("src")
	var tick func()
	tick = func() {
		if sk.Now() > deadline {
			return
		}
		payload := make([]byte, 40)
		binary.BigEndian.PutUint64(payload[:8], uint64(sk.Now()))
		if err := src.Send(probe.SourceVC, payload, nil); err != nil {
			t.Fatal(err)
		}
		sk.After(220*sim.Microsecond, tick)
	}
	tick()
	return samples
}

// TestParallelGoldenE16Shape is the E16-shaped golden test: the multi-hop
// CDV topology — shaped probe, per-hop cross load, CAC at every output port
// — run serial vs 2 and 4 shards. Every probe delay sample, every delivered
// cross frame, the merged registry and the merged trace must be identical.
func TestParallelGoldenE16Shape(t *testing.T) {
	const nSw = 3
	deadline := sim.Time(2 * sim.Millisecond)
	type e16Run struct {
		run     parRun
		samples []string
	}
	do := func(shards int) e16Run {
		var samples *[]string
		run := goldenRun(t, func() NetworkSpec { return e16ShapedSpec(nSw) }, shards,
			func(net *Network, col *collector) {
				samples = e16Drive(t, net, col, nSw, deadline)
			})
		return e16Run{run: run, samples: *samples}
	}
	serial := do(0)
	if len(serial.samples) == 0 {
		t.Fatal("serial run recorded no probe samples")
	}
	if len(serial.run.deliveries) == 0 {
		t.Fatal("serial run delivered no cross traffic")
	}
	for _, shards := range []int{2, 4} {
		run := do(shards)
		label := fmt.Sprintf("e16 shards=%d", shards)
		if run.run.shards != shards {
			t.Fatalf("%s: built %d partitions", label, run.run.shards)
		}
		requireRunsIdentical(t, label, serial.run, run.run)
		if len(run.samples) != len(serial.samples) {
			t.Fatalf("%s: %d probe samples, serial %d", label, len(run.samples), len(serial.samples))
		}
		for i := range run.samples {
			if run.samples[i] != serial.samples[i] {
				t.Fatalf("%s sample %d: sharded %s, serial %s", label, i, run.samples[i], serial.samples[i])
			}
		}
	}
}

// TestParallelExplicitPartitions pins the explicit-Partitions path: a
// caller-chosen grouping that splits the switch chain across shards, which
// the default partitioner never does.
func TestParallelExplicitPartitions(t *testing.T) {
	const nSw = 3
	deadline := sim.Time(1 * sim.Millisecond)
	drive := func(net *Network, col *collector) { e16Drive(t, net, col, nSw, deadline) }
	serial := goldenRun(t, func() NetworkSpec { return e16ShapedSpec(nSw) }, 0, drive)
	split := goldenRun(t, func() NetworkSpec {
		spec := e16ShapedSpec(nSw)
		spec.Partitions = [][]string{
			{"src", "sw1", "x1"},
			{"sw2", "x2", "sink2"},
			{"sw3", "x3", "sink3", "dst"},
		}
		return spec
	}, 0, drive)
	if split.shards != 3 {
		t.Fatalf("built %d partitions, want 3", split.shards)
	}
	requireRunsIdentical(t, "explicit-partitions", serial, split)
}

// TestShardedBuildValidation pins the builder's rejection of spec shapes a
// sharded build cannot honor.
func TestShardedBuildValidation(t *testing.T) {
	base := func() NetworkSpec {
		return NetworkSpec{
			Endpoints: []EndpointSpec{{Name: "a"}, {Name: "b"}},
			Links: []LinkSpec{{
				Name: "ab", A: NodeRef{Node: "a"}, B: NodeRef{Node: "b"}, Delay: 10_000,
			}},
			Shards: 2,
		}
	}
	t.Run("zero-delay cut", func(t *testing.T) {
		spec := base()
		spec.Links[0].Delay = 0
		spec.Partitions = [][]string{{"a"}, {"b"}}
		if _, err := NewNetwork(spec); err == nil || !strings.Contains(err.Error(), "cannot cross") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("framed cut", func(t *testing.T) {
		spec := base()
		spec.Links[0].Framed = true
		spec.Partitions = [][]string{{"a"}, {"b"}}
		if _, err := NewNetwork(spec); err == nil || !strings.Contains(err.Error(), "cannot cross") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("partition node missing", func(t *testing.T) {
		spec := base()
		spec.Partitions = [][]string{{"a"}}
		if _, err := NewNetwork(spec); err == nil || !strings.Contains(err.Error(), "missing") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("partition node unknown", func(t *testing.T) {
		spec := base()
		spec.Partitions = [][]string{{"a"}, {"b", "ghost"}}
		if _, err := NewNetwork(spec); err == nil || !strings.Contains(err.Error(), "unknown") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("too many partitions", func(t *testing.T) {
		// Every endpoint is its own unit, so the plan asks for one
		// partition more than a kernel lane can rank. The error comes from
		// planning, before any partition is built.
		spec := NetworkSpec{Shards: maxPartitions + 1}
		for i := 0; i <= maxPartitions; i++ {
			spec.Endpoints = append(spec.Endpoints, EndpointSpec{Name: fmt.Sprintf("e%d", i)})
		}
		if _, err := NewNetwork(spec); err == nil || !strings.Contains(err.Error(), "partitions") {
			t.Fatalf("err = %v", err)
		}
		spec.Endpoints = spec.Endpoints[:maxPartitions]
		spec.Shards = maxPartitions
		if p, err := planPartitions(spec); err != nil || p.shards != maxPartitions {
			t.Fatalf("plan of %d partitions: err = %v", maxPartitions, err)
		}
	})
	t.Run("kernel accessor panics sharded", func(t *testing.T) {
		net, err := NewNetwork(base())
		if err != nil {
			t.Fatal(err)
		}
		defer net.Close()
		for name, get := range map[string]func(){
			"Kernel":   func() { net.Kernel() },
			"Recorder": func() { net.Recorder() },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s() did not panic on a sharded build", name)
					}
				}()
				get()
			}()
		}
	})
	t.Run("framed uncut ok", func(t *testing.T) {
		// A framed pair with Shards requested clamps to one partition (the
		// framed link merges both endpoints), and a one-partition plan is
		// the serial build: its kernel, recorder and live registry are
		// reachable like any serial build's.
		spec := base()
		spec.Links[0].Framed = true
		spec.VCCs = []VCCSpec{{Name: "flow", From: "a", To: "b"}}
		spec.TraceCapacity = 1024
		net, err := NewNetwork(spec)
		if err != nil {
			t.Fatal(err)
		}
		defer net.Close()
		if net.Shards() != 1 {
			t.Fatalf("shards = %d, want 1", net.Shards())
		}
		k, reg := net.Kernel(), net.Metrics()
		if net.NodeKernel("a") != k || net.NodeKernel("b") != k {
			t.Fatal("nodes run on a kernel other than Kernel()")
		}
		if net.Metrics() != reg {
			t.Fatal("Metrics() returned a different registry on the second call")
		}
		if net.Recorder() == nil {
			t.Fatal("Recorder() is nil with TraceCapacity set")
		}
		got := 0
		net.Endpoint("b").OnReceive(func(p Packet) { got++ })
		if err := net.Endpoint("a").Send(net.VCC("flow").SourceVC, make([]byte, 100), nil); err != nil {
			t.Fatal(err)
		}
		k.Run()
		if got != 1 || reg.Counter("b.nic.rx.packets").Value() != 1 {
			t.Fatalf("delivered %d, registry counts %d, want 1 each", got, reg.Counter("b.nic.rx.packets").Value())
		}
		if len(net.TraceEvents()) == 0 {
			t.Fatal("no trace events recorded")
		}
	})
}

// TestParallelGoldenABRLoop is the E21-shaped golden test: three greedy ABR
// sources over real-delay access fibers into one EFCI+ERICA switch whose
// output port drains at 155 Mb/s. Every forward RM cell, every EFCI-marked
// data cell and every turned-around backward RM cell crosses a partition
// mailbox in the sharded build, and the closed loop makes cell timing
// feedback-coupled: one RM cell delivered a nanosecond late would re-target
// a shaper and shift every subsequent cell. Deliveries, the registry
// (including efci_marked/er_stamped and the NICs' abr counters), the trace
// and each source's final ACR must be byte-identical to the serial run.
func TestParallelGoldenABRLoop(t *testing.T) {
	const nSrc = 3
	deadline := sim.Time(2 * sim.Millisecond)
	pcr := units.CellRate(Rate622)
	mk := func() NetworkSpec {
		erica := netsim.ERICAConfig{TargetUtil: 0.9, Interval: 100 * sim.Microsecond}
		spec := NetworkSpec{
			Switches: []SwitchSpec{{
				Name: "sw", Ports: nSrc + 1, Rate: Rate622, QueueDepth: 512,
				EFCIThreshold: 32, ERICA: &erica,
			}},
		}
		for i := 0; i < nSrc; i++ {
			name := fmt.Sprintf("s%d", i+1)
			spec.Endpoints = append(spec.Endpoints, EndpointSpec{Name: name, Options: Options{Rate: Rate622}})
			spec.Links = append(spec.Links, LinkSpec{
				Name: name + "-sw", A: NodeRef{Node: name},
				B:     NodeRef{Node: "sw", Port: i},
				Delay: sim.Duration(20_000 + 7_000*i), Seed: uint64(90 + i),
			})
		}
		spec.Endpoints = append(spec.Endpoints, EndpointSpec{Name: "dst", Options: Options{Rate: Rate155}})
		spec.Links = append(spec.Links, LinkSpec{
			Name: "sw-dst", A: NodeRef{Node: "sw", Port: nSrc},
			B: NodeRef{Node: "dst"}, Delay: 5_000, Seed: 99,
		})
		for i := 0; i < nSrc; i++ {
			spec.VCCs = append(spec.VCCs, VCCSpec{
				Name: fmt.Sprintf("abr%d", i+1), From: fmt.Sprintf("s%d", i+1), To: "dst",
				VC:     atm.VC{VCI: uint16(101 + i)},
				Duplex: true,
				ABR:    &tm.ABRParams{PCR: pcr, ICR: pcr / 16, Nrm: 32},
			})
		}
		return spec
	}
	type abrRun struct {
		run  parRun
		acrs []float64
	}
	do := func(shards int) abrRun {
		var acrs []float64
		var netRef *Network
		run := goldenRun(t, mk, shards, func(net *Network, col *collector) {
			netRef = net
			net.Switch("sw").SetPortRate(nSrc, Rate155)
			col.watch(net, "dst")
			for i := 0; i < nSrc; i++ {
				v := net.VCC(fmt.Sprintf("abr%d", i+1))
				NewSource(v.Source, v.SourceVC, 9180, deadline).Start(4)
			}
		})
		for i := 0; i < nSrc; i++ {
			v := netRef.VCC(fmt.Sprintf("abr%d", i+1))
			acr, ok := v.Source.Interface().ACR(v.SourceVC)
			if !ok {
				t.Fatalf("shards=%d: %s lost its ABR state", shards, v.Name)
			}
			acrs = append(acrs, acr)
		}
		return abrRun{run: run, acrs: acrs}
	}
	serial := do(0)
	if len(serial.run.deliveries) == 0 {
		t.Fatal("serial run delivered nothing")
	}
	if !strings.Contains(serial.run.metrics, "er_stamped") {
		t.Fatalf("serial run never stamped an explicit rate:\n%s", serial.run.metrics)
	}
	for i, acr := range serial.acrs {
		if acr <= 0 || acr >= pcr {
			t.Fatalf("serial abr%d ACR = %.0f, outside (0, PCR): loop never engaged", i+1, acr)
		}
	}
	for _, shards := range []int{2, 4} {
		run := do(shards)
		label := fmt.Sprintf("abr shards=%d", shards)
		if run.run.shards < 2 {
			t.Fatalf("%s: built %d partitions", label, run.run.shards)
		}
		requireRunsIdentical(t, label, serial.run, run.run)
		for i := range run.acrs {
			if run.acrs[i] != serial.acrs[i] {
				t.Fatalf("%s abr%d: ACR %.2f, serial %.2f", label, i+1, run.acrs[i], serial.acrs[i])
			}
		}
	}
}

// islandSpec is the topology built for sharding: n switch islands (one
// switch and two endpoints each, on 1 µs access fibers) chained by 50 µs
// inter-island fibers, the partitions' lookahead. Inside each island two
// greedy flows run both ways; one light flow x<i> crosses from island i-1
// into island i.
func islandSpec(n int) NetworkSpec {
	var spec NetworkSpec
	for i := 1; i <= n; i++ {
		spec.Switches = append(spec.Switches, SwitchSpec{
			Name: fmt.Sprintf("sw%d", i), Ports: 4, QueueDepth: 96,
		})
		spec.Endpoints = append(spec.Endpoints,
			EndpointSpec{Name: fmt.Sprintf("a%d", i)},
			EndpointSpec{Name: fmt.Sprintf("b%d", i)})
		spec.Links = append(spec.Links,
			LinkSpec{
				Name: fmt.Sprintf("a%d-in", i), A: NodeRef{Node: fmt.Sprintf("a%d", i)},
				B:     NodeRef{Node: fmt.Sprintf("sw%d", i), Port: 0},
				Delay: 1_000, Seed: uint64(10 + i),
			},
			LinkSpec{
				Name: fmt.Sprintf("b%d-in", i), A: NodeRef{Node: fmt.Sprintf("b%d", i)},
				B:     NodeRef{Node: fmt.Sprintf("sw%d", i), Port: 1},
				Delay: 1_000, Seed: uint64(20 + i),
			})
		if i > 1 {
			spec.Links = append(spec.Links, LinkSpec{
				Name:  fmt.Sprintf("sw%d-sw%d", i-1, i),
				A:     NodeRef{Node: fmt.Sprintf("sw%d", i-1), Port: 2},
				B:     NodeRef{Node: fmt.Sprintf("sw%d", i), Port: 3},
				Delay: 50_000, Seed: uint64(30 + i),
			})
		}
		spec.VCCs = append(spec.VCCs,
			VCCSpec{Name: fmt.Sprintf("ab%d", i), From: fmt.Sprintf("a%d", i),
				To: fmt.Sprintf("b%d", i), VC: VC{VCI: uint16(100 + i)}},
			VCCSpec{Name: fmt.Sprintf("ba%d", i), From: fmt.Sprintf("b%d", i),
				To: fmt.Sprintf("a%d", i), VC: VC{VCI: uint16(120 + i)}})
		if i > 1 {
			spec.VCCs = append(spec.VCCs, VCCSpec{
				Name: fmt.Sprintf("x%d", i), From: fmt.Sprintf("a%d", i-1),
				To: fmt.Sprintf("b%d", i), VC: VC{VCI: uint16(140 + i)}})
		}
	}
	return spec
}

// TestParallelGoldenIslands runs the island topology on explicit island
// partitions (two islands per shard, then one) and requires each run
// byte-identical to serial. The crossing flows are paced to 5% of line rate
// with SetPeakCellRate, so every partition boundary carries a shaped stream
// beside the greedy load inside the islands.
func TestParallelGoldenIslands(t *testing.T) {
	const islands = 4
	// Short frames and a short deadline keep every run's trace inside the
	// recorder ring, so the serial and merged sharded traces compare whole.
	const sdu = 1500
	deadline := sim.Time(200 * sim.Microsecond)
	crossing := map[string]bool{} // "ep=b<i> vc=<dest VC> " of each x<i>
	drive := func(net *Network, col *collector) {
		for i := 1; i <= islands; i++ {
			col.watch(net, fmt.Sprintf("a%d", i))
			col.watch(net, fmt.Sprintf("b%d", i))
			for _, name := range []string{fmt.Sprintf("ab%d", i), fmt.Sprintf("ba%d", i)} {
				v := net.VCC(name)
				NewSource(v.Source, v.SourceVC, sdu, deadline).Start(4)
			}
			if i > 1 {
				v := net.VCC(fmt.Sprintf("x%d", i))
				if err := v.Source.SetPeakCellRate(v.SourceVC, 0.05*units.CellRate(units.STS3cPayload)); err != nil {
					t.Fatal(err)
				}
				NewSource(v.Source, v.SourceVC, sdu, deadline).Start(2)
				crossing[fmt.Sprintf("ep=b%d vc=%v ", i, v.DestVC)] = true
			}
		}
	}
	serial := goldenRun(t, func() NetworkSpec { return islandSpec(islands) }, 0, drive)
	crossed := 0
	for _, line := range serial.deliveries {
		for key := range crossing {
			if strings.Contains(line, key) {
				crossed++
			}
		}
	}
	if crossed == 0 {
		t.Fatalf("no paced frame crossed an island boundary in %d deliveries", len(serial.deliveries))
	}
	for _, shards := range []int{2, 4} {
		spec := func() NetworkSpec {
			spec := islandSpec(islands)
			spec.Partitions = make([][]string, shards)
			for i := 1; i <= islands; i++ {
				p := (i - 1) * shards / islands
				spec.Partitions[p] = append(spec.Partitions[p],
					fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i), fmt.Sprintf("sw%d", i))
			}
			return spec
		}
		run := goldenRun(t, spec, 0, drive)
		label := fmt.Sprintf("islands shards=%d", shards)
		if run.shards != shards {
			t.Fatalf("%s: built %d partitions", label, run.shards)
		}
		requireRunsIdentical(t, label, serial, run)
	}
}
