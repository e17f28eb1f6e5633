package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// coreRun captures everything a golden check pins at the builder level:
// every delivered SDU with its nanosecond timestamp and payload head, the
// whole metrics registry (per-VC rows, link counters, drop attribution), and
// the flight recorder's spans.
type coreRun struct {
	deliveries []string
	metrics    string
	spans      []trace.Span
}

// digest is a SHA-256 over the run's deliveries, metrics text and spans in
// (start, stage, vc, end) order: one string that moves if any timestamp,
// payload byte, counter or span moves.
func (r coreRun) digest() string {
	h := sha256.New()
	for _, d := range r.deliveries {
		fmt.Fprintln(h, d)
	}
	fmt.Fprint(h, r.metrics)
	for _, s := range r.spans {
		fmt.Fprintf(h, "span %d %d/%d %d %d\n", s.Stage, s.VC.VPI, s.VC.VCI, int64(s.Start), int64(s.End))
	}
	// The pinned digests were recorded over text that ends with a count of
	// unmatched span ends. Spans are recorded whole, so that count is zero,
	// and the constant line keeps every pin valid.
	fmt.Fprint(h, "unmatched 0\n")
	return hex.EncodeToString(h.Sum(nil))
}

// sortSpans puts spans in a canonical order: (start, stage, vc, end) covers
// every field, so the result does not depend on emission order.
func sortSpans(spans []trace.Span) {
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Stage != b.Stage {
			return a.Stage < b.Stage
		}
		if a.VC.VPI != b.VC.VPI {
			return a.VC.VPI < b.VC.VPI
		}
		if a.VC.VCI != b.VC.VCI {
			return a.VC.VCI < b.VC.VCI
		}
		return a.End < b.End
	})
}

// buildRun constructs the spec with a recorder, hands the network to drive
// for traffic injection, runs to completion and collects the pinned state.
func buildRun(t *testing.T, spec NetworkSpec, drive func(*Network, *coreRun)) coreRun {
	t.Helper()
	spec.TraceCapacity = 1 << 16
	net, err := NewNetwork(spec)
	if err != nil {
		t.Fatal(err)
	}
	rec := net.Recorder()
	var run coreRun
	drive(net, &run)
	net.Run()
	var sb bytes.Buffer
	if err := net.Metrics().Snapshot().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	run.metrics = sb.String()
	run.spans = rec.Spans()
	sortSpans(run.spans)
	return run
}

// requireDigest compares a run against its pinned digest. The digests were
// recorded from the serial per-cell datapath; a mismatch means something
// observable moved.
func requireDigest(t *testing.T, label string, run coreRun, want string) {
	t.Helper()
	if got := run.digest(); got != want {
		t.Errorf("%s: digest %s, pinned %s (%d deliveries, %d spans)",
			label, got, want, len(run.deliveries), len(run.spans))
	}
}

func framedPairSpec(opts Options, seed uint64, bitErrProb float64) NetworkSpec {
	return NetworkSpec{
		Endpoints: []EndpointSpec{
			{Name: "a", Options: opts},
			{Name: "b", Options: opts},
		},
		Links: []LinkSpec{{
			Name: "ab", A: NodeRef{Node: "a"}, B: NodeRef{Node: "b"},
			Delay: 10_000, Seed: seed, Framed: true, BitErrProb: bitErrProb,
		}},
		VCCs: []VCCSpec{{Name: "flow", From: "a", To: "b"}},
	}
}

func record(run *coreRun) func(Packet) {
	return func(p Packet) {
		head := p.Data
		if len(head) > 4 {
			head = head[:4]
		}
		run.deliveries = append(run.deliveries,
			fmt.Sprintf("t=%d vc=%v len=%d cells=%d head=%x", int64(p.At), p.VC, len(p.Data), p.Cells, head))
	}
}

func sendAll(t *testing.T, net *Network, run *coreRun, sizes []int) {
	t.Helper()
	vcc := net.VCC("flow")
	net.Endpoint("b").OnReceive(record(run))
	for i, size := range sizes {
		data := make([]byte, size)
		for j := range data {
			data[j] = byte(i + j)
		}
		if err := net.Endpoint("a").Send(vcc.SourceVC, data, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFramedPairGolden is the E3-shaped golden test: a host-to-host
// throughput run over the full SONET path at both line rates, pinned to the
// same SDUs at the same nanoseconds, the same registry byte-for-byte (so
// every drop is attributed identically), and the same trace spans.
func TestFramedPairGolden(t *testing.T) {
	sizes := []int{9180, 9180, 9180, 4352, 9180, 1500}
	for _, c := range []struct {
		name   string
		opts   Options
		digest string
	}{
		{"155", Options{TxFifoCells: 128, RxFifoCells: 128}, "daa05d62ab4fd3f1173b73156f4fb10039d5741de68dba06edd460a578113cf9"},
		// At 622 the stock 25 MHz engine saturates (the E3 story); give the
		// pair the upgraded board so the workload actually arrives.
		{"622", Options{Rate: Rate622, TxFifoCells: 128, RxFifoCells: 128, EngineMHz: 66, RxEngines: 3}, "f18be1fe5978323d42572c4016f488515c76569f0026e75187d2186b0fd2ec53"},
	} {
		label := "rate=" + c.name
		run := buildRun(t, framedPairSpec(c.opts, 11, 0), func(net *Network, run *coreRun) { sendAll(t, net, run, sizes) })
		if len(run.deliveries) != len(sizes) {
			t.Fatalf("%s: delivered %d of %d", label, len(run.deliveries), len(sizes))
		}
		requireDigest(t, label, run, c.digest)
	}
}

// TestFramedPairLatencyGolden is the E5-shaped golden test: small
// request/response SDUs whose per-delivery timestamps are the measurement.
func TestFramedPairLatencyGolden(t *testing.T) {
	sizes := []int{1, 44, 45, 89, 512, 1000, 2048, 40, 4000}
	run := buildRun(t, framedPairSpec(Options{TxFifoCells: 128, RxFifoCells: 128}, 5, 0), func(net *Network, run *coreRun) { sendAll(t, net, run, sizes) })
	if len(run.deliveries) != len(sizes) {
		t.Fatalf("delivered %d of %d", len(run.deliveries), len(sizes))
	}
	requireDigest(t, "latency-shape", run, "1e69b4bbbf3b64449203026230c7b90102502a067438aa5406b3a84b267f3dbe")
}

// TestSwitchTopologyGolden is the E15-shaped golden test: two senders
// congesting one switch output port, plus seeded cell loss on an access
// fiber, pinned down to every drop-attribution counter the congestion
// generates.
func TestSwitchTopologyGolden(t *testing.T) {
	spec := NetworkSpec{
		Endpoints: []EndpointSpec{
			{Name: "a"}, {Name: "b"},
			{Name: "c", Options: Options{ReassemblyTimeout: sim.Millisecond}},
		},
		Switches: []SwitchSpec{
			{Name: "sw", Ports: 3, QueueDepth: 16},
		},
		Links: []LinkSpec{
			{Name: "a-sw", A: NodeRef{Node: "a"}, B: NodeRef{Node: "sw", Port: 0}, Delay: 1000, Seed: 25, LossProb: 0.01},
			{Name: "b-sw", A: NodeRef{Node: "b"}, B: NodeRef{Node: "sw", Port: 1}, Delay: 2400, Seed: 26},
			{Name: "sw-c", A: NodeRef{Node: "sw", Port: 2}, B: NodeRef{Node: "c"}, Seed: 27},
		},
		VCCs: []VCCSpec{
			{Name: "a-c", From: "a", To: "c", VC: VC{VCI: 101}},
			{Name: "b-c", From: "b", To: "c", VC: VC{VCI: 201}},
		},
	}
	run := buildRun(t, spec, func(net *Network, run *coreRun) {
		net.Endpoint("c").OnReceive(record(run))
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
	})
	if !strings.Contains(run.metrics, "drop") {
		t.Fatalf("congestion workload produced no drop rows:\n%s", run.metrics)
	}
	requireDigest(t, "switch-topology", run, "bf0c4800cbf3645158caeaad91eaa6c4288d773c276c4a4908eb6ab6badef884")
}

// TestFramedPropertySweepGolden varies workload shape, fault seeding and
// line bit errors across both SONET rates. BitErrProb is per frame, and at
// 2e-4 and 5e-4 no error lands on these short runs: every SDU arrives. At
// 0.2 the line errs, and the damaged frames cost two SDUs their AAL5 CRC;
// the loss pattern, its attribution and the surviving deliveries are all
// pinned.
func TestFramedPropertySweepGolden(t *testing.T) {
	type swept struct {
		opts      Options
		seed      uint64
		bitErr    float64
		nSDU      int
		sizeGen   func(i int) int
		delivered int
		digest    string
	}
	cases := []swept{
		{Options{TxFifoCells: 128, RxFifoCells: 128}, 1, 0, 9, func(i int) int { return 40 + (i*613)%5000 }, 9, "267864b53671542e1f8015a81a3d254bdc317825136006a57f6f0ec2c060c289"},
		{Options{TxFifoCells: 128, RxFifoCells: 128}, 9, 2e-4, 14, func(i int) int { return 300 + (i*2897)%4000 }, 14, "7b9b63ef026f0367902be759fb5bc2165054a943a6d129b1113c207e2d5185af"},
		{Options{Rate: Rate622, TxFifoCells: 128, RxFifoCells: 128}, 4, 0, 9, func(i int) int { return 1 + (i*9181)%9180 }, 9, "acdadc269c95227e8e8f2069d51c835666f4f2deb33716d22e6f0ce4e049e109"},
		{Options{Rate: Rate622, TxFifoCells: 128, RxFifoCells: 128}, 7, 5e-4, 14, func(i int) int { return 64 + (i*4099)%8192 }, 14, "dc9f4b2d0f1b310f02e2eeae23b76cb3819fd28f126999245a46c13da58499ae"},
		{Options{TxFifoCells: 128, RxFifoCells: 128}, 9, 0.2, 14, func(i int) int { return 300 + (i*2897)%4000 }, 12, "7cb35bfcfde79bf5315d3dc65dfc7ad1641cf2a1cc90f20035818d6967c7fe27"},
	}
	for ci, c := range cases {
		sizes := make([]int, c.nSDU)
		for i := range sizes {
			sizes[i] = c.sizeGen(i)
		}
		run := buildRun(t, framedPairSpec(c.opts, c.seed, c.bitErr), func(net *Network, run *coreRun) { sendAll(t, net, run, sizes) })
		if len(run.deliveries) != c.delivered {
			t.Fatalf("case %d: delivered %d of %d, want %d", ci, len(run.deliveries), c.nSDU, c.delivered)
		}
		requireDigest(t, fmt.Sprintf("case %d", ci), run, c.digest)
	}
}

// TestFramedLinkValidation pins the builder's rejection of spec shapes the
// framed path cannot model.
func TestFramedLinkValidation(t *testing.T) {
	base := func() NetworkSpec {
		return NetworkSpec{
			Endpoints: []EndpointSpec{{Name: "a"}, {Name: "b"}},
			Links: []LinkSpec{{
				Name: "ab", A: NodeRef{Node: "a"}, B: NodeRef{Node: "b"}, Framed: true,
			}},
		}
	}
	t.Run("switch port", func(t *testing.T) {
		spec := base()
		spec.Switches = []SwitchSpec{{Name: "sw", Ports: 2}}
		spec.Links[0].B = NodeRef{Node: "sw", Port: 0}
		if _, err := NewNetwork(spec); err == nil || !strings.Contains(err.Error(), "two endpoints") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("cell faults on framed", func(t *testing.T) {
		spec := base()
		spec.Links[0].LossProb = 0.1
		if _, err := NewNetwork(spec); err == nil || !strings.Contains(err.Error(), "BitErrProb") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("bit errors on cell link", func(t *testing.T) {
		spec := base()
		spec.Links[0].Framed = false
		spec.Links[0].BitErrProb = 1e-3
		if _, err := NewNetwork(spec); err == nil || !strings.Contains(err.Error(), "Framed") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("framed link built", func(t *testing.T) {
		net, err := NewNetwork(base())
		if err != nil {
			t.Fatal(err)
		}
		l := net.Link("ab")
		if l.Framed == nil || l.Fwd != nil || l.Rev != nil {
			t.Fatalf("framed link handle: %+v", l)
		}
	})
}
