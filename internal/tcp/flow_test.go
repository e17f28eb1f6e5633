package tcp

import (
	"testing"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/ip"
	"repro/internal/sim"
)

// rig is two stations joined by a clean duplex link with one flow on VC 80.
type rig struct {
	k        *sim.Kernel
	snd, rcv *ip.Stack
	vc       atm.VC
	flow     *Flow
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	vc := atm.VC{VCI: 80}
	net, err := core.NewNetwork(core.NetworkSpec{
		Endpoints: []core.EndpointSpec{{Name: "snd"}, {Name: "rcv"}},
		Links: []core.LinkSpec{{Name: "link", A: core.NodeRef{Node: "snd"}, B: core.NodeRef{Node: "rcv"},
			Delay: 100 * sim.Microsecond, Seed: 3}},
		VCCs: []core.VCCSpec{{Name: "t", From: "snd", To: "rcv", VC: vc, Duplex: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	k := net.Kernel()
	snd := ip.NewStack(net.Endpoint("snd").Interface(), ip.LLCSnap, ip.Addr{10, 0, 0, 1})
	rcv := ip.NewStack(net.Endpoint("rcv").Interface(), ip.LLCSnap, ip.Addr{10, 0, 0, 2})
	r := &rig{k: k, snd: snd, rcv: rcv, vc: vc}
	r.flow = NewFlow(k, "t", snd, vc, rcv, vc, cfg)
	return r
}

func TestFlowTransferClean(t *testing.T) {
	r := newRig(t, Config{})
	const total = 200 << 10
	done := false
	r.flow.Start(total, func() { done = true })
	r.k.Run()
	if !done || !r.flow.Done() {
		t.Fatalf("transfer incomplete: delivered %d of %d", r.flow.Delivered(), total)
	}
	if r.flow.Delivered() != total {
		t.Errorf("delivered %d, want %d", r.flow.Delivered(), total)
	}
	st := r.flow.Sender.Stats()
	if st.Retransmits != 0 || st.Timeouts != 0 || st.FastRetransmits != 0 {
		t.Errorf("loss events on a clean link: %+v", st)
	}
	// Slow start must have grown the window past its initial two segments.
	if r.flow.Sender.Cwnd() <= 2*1460 {
		t.Errorf("cwnd never grew: %d", r.flow.Sender.Cwnd())
	}
	if r.flow.Sender.SRTT() <= 0 {
		t.Errorf("no RTT sample taken")
	}
}

// dropFilter rebinds the receiver's VC with a predicate that discards
// selected data segments before they reach the Receiver — deterministic
// loss without touching the link.
func dropFilter(r *rig, drop func(dataIdx int) bool) {
	idx := 0
	r.rcv.Bind(r.vc, func(h ip.Header, payload []byte, at sim.Time) {
		if len(payload) > HeaderSize {
			idx++
			if drop(idx) {
				return
			}
		}
		r.flow.Receiver.HandleSegment(h, payload, at)
	})
}

func TestFlowFastRetransmit(t *testing.T) {
	r := newRig(t, Config{})
	// Lose the 10th data segment: by then slow start has opened the window
	// far enough that the segments behind the hole generate 3+ dup ACKs.
	dropFilter(r, func(i int) bool { return i == 10 })
	const total = 200 << 10
	done := false
	r.flow.Start(total, func() { done = true })
	r.k.Run()
	if !done {
		t.Fatalf("transfer incomplete: delivered %d", r.flow.Delivered())
	}
	st := r.flow.Sender.Stats()
	if st.FastRetransmits != 1 {
		t.Errorf("fast retransmits = %d, want 1", st.FastRetransmits)
	}
	if st.Timeouts != 0 {
		t.Errorf("timeouts = %d, want 0 (dup ACKs should recover)", st.Timeouts)
	}
	rs := r.flow.Receiver.Stats()
	if rs.OOOSegments == 0 {
		t.Errorf("no out-of-order segments buffered")
	}
	if r.flow.Delivered() != total {
		t.Errorf("delivered %d, want %d", r.flow.Delivered(), total)
	}
	// Loss must have cut the window: ssthresh fell below the ceiling.
	if r.flow.Sender.ssthresh >= (Config{}).withDefaults().RcvWnd {
		t.Errorf("ssthresh never reduced: %d", r.flow.Sender.ssthresh)
	}
}

func TestFlowTimeoutRecovery(t *testing.T) {
	r := newRig(t, Config{})
	// Lose the first four data segments: the initial window (2 segments)
	// dies, and so do the first two RTO retransmissions — forcing repeated
	// timeouts with exponential backoff before the transfer proceeds.
	dropFilter(r, func(i int) bool { return i <= 4 })
	const total = 50 << 10
	done := false
	r.flow.Start(total, func() { done = true })
	r.k.Run()
	if !done {
		t.Fatalf("transfer incomplete: delivered %d", r.flow.Delivered())
	}
	st := r.flow.Sender.Stats()
	if st.Timeouts < 2 {
		t.Errorf("timeouts = %d, want >= 2", st.Timeouts)
	}
	if st.Retransmits < 2 {
		t.Errorf("retransmits = %d", st.Retransmits)
	}
	if r.flow.Delivered() != total {
		t.Errorf("delivered %d, want %d", r.flow.Delivered(), total)
	}
}

func TestFlowUnboundedStop(t *testing.T) {
	r := newRig(t, Config{})
	r.flow.Start(0, nil)
	r.k.RunFor(20 * sim.Millisecond)
	r.flow.Stop()
	r.k.Run()
	if r.flow.Delivered() == 0 {
		t.Error("unbounded flow delivered nothing")
	}
	if r.flow.Done() {
		t.Error("unbounded flow claims Done")
	}
	defer func() {
		if recover() == nil {
			t.Error("restart after Stop did not panic")
		}
	}()
	r.flow.Start(1, nil)
}

func TestFlowInstrument(t *testing.T) {
	r := newRig(t, Config{})
	r.flow.Start(64<<10, nil)
	r.k.Run()
	// Both halves count in their interfaces' registry without being asked.
	reg := r.snd.Interface().Metrics()
	if reg.Gauge("tcp.t.cwnd").Value() <= 0 {
		t.Error("cwnd gauge not maintained")
	}
	if got, want := reg.Counter("tcp.t.acks_sent").Value(), r.flow.Receiver.Stats().AcksSent; got == 0 || got != want {
		t.Errorf("acks_sent counter %d, Receiver.Stats %d", got, want)
	}
	if reg.Histogram("tcp.t.rtt_ns").Count() == 0 {
		t.Error("rtt histogram empty")
	}
}

// A flow across a switch counts into the partition registries its halves
// run in, so the network's merged snapshot holds the same TCP counts on a
// sharded build as on the serial one.
func TestFlowCountsReachShardedMetrics(t *testing.T) {
	vc := atm.VC{VCI: 80}
	spec := core.NetworkSpec{
		Endpoints: []core.EndpointSpec{{Name: "snd"}, {Name: "rcv"}},
		Switches:  []core.SwitchSpec{{Name: "sw", Ports: 2, QueueDepth: 256}},
		Links: []core.LinkSpec{
			{Name: "up", A: core.NodeRef{Node: "snd"}, B: core.NodeRef{Node: "sw", Port: 0},
				Delay: 100 * sim.Microsecond, Seed: 3},
			{Name: "down", A: core.NodeRef{Node: "sw", Port: 1}, B: core.NodeRef{Node: "rcv"},
				Delay: 100 * sim.Microsecond, Seed: 4},
		},
		VCCs: []core.VCCSpec{{Name: "t", From: "snd", To: "rcv", VC: vc, Duplex: true}},
	}
	type result struct{ acks, cwndMax uint64 }
	run := func(t *testing.T, shards int, parts [][]string) result {
		spec := spec
		spec.Shards, spec.Partitions = shards, parts
		net, err := core.NewNetwork(spec)
		if err != nil {
			t.Fatal(err)
		}
		defer net.Close()
		if want := max(shards, len(parts), 1); net.Shards() != want {
			t.Fatalf("built %d partitions, want %d", net.Shards(), want)
		}
		v := net.VCC("t")
		snd := ip.NewStack(net.Endpoint("snd").Interface(), ip.LLCSnap, ip.Addr{10, 0, 0, 1})
		rcv := ip.NewStack(net.Endpoint("rcv").Interface(), ip.LLCSnap, ip.Addr{10, 0, 0, 2})
		f := NewFlow(net.NodeKernel("snd"), "t", snd, v.SourceVC, rcv, v.DestVC, Config{})
		const total = 200 << 10
		f.Start(total, nil)
		net.Run()
		if f.Delivered() != total {
			t.Fatalf("delivered %d of %d bytes", f.Delivered(), total)
		}
		reg := net.Metrics()
		acks := reg.Counter("tcp.t.acks_sent").Value()
		if want := f.Receiver.Stats().AcksSent; acks == 0 || acks != want {
			t.Errorf("tcp.t.acks_sent = %d, Receiver.Stats().AcksSent = %d", acks, want)
		}
		cwndMax := reg.Gauge("tcp.t.cwnd").Max()
		if cwndMax <= 0 {
			t.Errorf("tcp.t.cwnd watermark = %d", cwndMax)
		}
		return result{acks: acks, cwndMax: uint64(cwndMax)}
	}
	serial := run(t, 0, nil)
	for _, tc := range []struct {
		name   string
		shards int
		parts  [][]string
	}{
		{"shards2", 2, nil},
		{"per-node", 0, [][]string{{"snd"}, {"sw"}, {"rcv"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := run(t, tc.shards, tc.parts); got != serial {
				t.Errorf("sharded counts %+v, serial %+v", got, serial)
			}
		})
	}
}

func TestReceiverOutOfOrder(t *testing.T) {
	r := newRig(t, Config{})
	rcv := r.flow.Receiver
	h := ip.Header{Src: r.snd.Addr(), Dst: r.rcv.Addr(), Proto: ip.ProtoTCP}
	inject := func(seq uint32, n int) {
		seg := Segment{SrcPort: 5001, DstPort: 34000, Seq: seq,
			Flags: FlagACK, Window: 64 << 10, Payload: make([]byte, n)}
		rcv.HandleSegment(h, seg.Marshal(h.Src, h.Dst), r.k.Now())
	}
	inject(iss, 100) // in order
	if rcv.Delivered() != 100 {
		t.Fatalf("delivered = %d", rcv.Delivered())
	}
	inject(iss+300, 100) // above a hole: buffered
	if rcv.Delivered() != 100 || rcv.Stats().OOOSegments != 1 {
		t.Fatalf("OOO handling: delivered=%d stats=%+v", rcv.Delivered(), rcv.Stats())
	}
	inject(iss+300, 100) // duplicate of the buffered segment
	if rcv.Stats().OOOSegments != 2 {
		t.Errorf("dup OOO not counted: %+v", rcv.Stats())
	}
	inject(iss+100, 200) // fills the hole; buffered segment drains too
	if rcv.Delivered() != 400 {
		t.Errorf("after fill: delivered = %d", rcv.Delivered())
	}
	inject(iss, 100) // fully old
	if rcv.Stats().DupSegments != 1 {
		t.Errorf("old segment not counted dup: %+v", rcv.Stats())
	}
	if rcv.Stats().AcksSent != 5 {
		t.Errorf("acks sent = %d, want 5", rcv.Stats().AcksSent)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.MSS != 1460 || c.RcvWnd != 64<<10 || c.InitialCwnd != 2 {
		t.Errorf("defaults: %+v", c)
	}
	if c.SSThresh != c.RcvWnd {
		t.Errorf("ssthresh default: %d", c.SSThresh)
	}
	big := Config{RcvWnd: MaxWindow * 4}.withDefaults()
	if big.RcvWnd != MaxWindow {
		t.Errorf("RcvWnd not clamped: %d", big.RcvWnd)
	}
}
