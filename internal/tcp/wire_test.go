package tcp

import (
	"bytes"
	"testing"

	"repro/internal/ip"
	"repro/internal/nic"
	"repro/internal/sim"
)

// wantFrame is the frame a segment makes when it is marshalled on its own,
// wrapped in the IPv4 header the sending stack stamps (its id-th datagram)
// and LLC/SNAP-encapsulated: the reference the in-place path must match.
func wantFrame(id uint16, src, dst ip.Addr, seg Segment) []byte {
	hdr := ip.Header{ID: id, Proto: ip.ProtoTCP, Src: src, Dst: dst}
	return ip.Encapsulate(ip.LLCSnap, ip.EtherTypeIPv4, hdr.Datagram(seg.Marshal(src, dst)))
}

// The frames a flow transmits — a full 9140-byte segment, a 1-byte one and
// a bare ACK — are byte for byte the frames the marshal-then-wrap path
// builds.
func TestSegmentFramesOnTheWire(t *testing.T) {
	const mss = 9140
	r := newRig(t, Config{MSS: mss})
	s, rc := r.flow.Sender, r.flow.Receiver
	// Each interface hands its frames to the test instead of its stack.
	var got [][]byte
	capture := func(d nic.Delivered) { got = append(got, bytes.Clone(d.SDU)) }
	r.rcv.Interface().OnReceive(capture)
	r.snd.Interface().OnReceive(capture)

	s.emit(iss, mss, false)
	s.emit(iss+mss, 1, false)
	r.k.Run()
	rc.sendAck()
	r.k.Run()

	data := func(seq uint32, n int) Segment {
		return Segment{SrcPort: s.srcPort, DstPort: s.dstPort, Seq: seq,
			Flags: FlagACK, Window: s.cfg.RcvWnd, Payload: make([]byte, n)}
	}
	ack := Segment{SrcPort: rc.srcPort, DstPort: rc.dstPort, Seq: 1, Ack: iss,
		Flags: FlagACK, Window: rc.window}
	want := [][]byte{
		wantFrame(1, r.snd.Addr(), r.rcv.Addr(), data(iss, mss)),
		wantFrame(2, r.snd.Addr(), r.rcv.Addr(), data(iss+mss, 1)),
		wantFrame(1, r.rcv.Addr(), r.snd.Addr(), ack),
	}
	if len(got) != len(want) {
		t.Fatalf("captured %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("frame %d (%d bytes) differs from the marshalled %d-byte frame", i, len(got[i]), len(want[i]))
		}
	}
}

// On a warm flow the host path allocates nothing per data segment or per
// ACK beyond what the interface itself costs for a frame of that size: the
// stack's frames recycle at their transmit-complete interrupt. Re-arming
// the retransmission timer allocates nothing.
func TestHostPathAllocations(t *testing.T) {
	const mss = 9140
	r := newRig(t, Config{MSS: mss})
	s, rc := r.flow.Sender, r.flow.Receiver
	r.flow.Start(1<<20, nil)
	r.k.Run()
	if !r.flow.Done() {
		t.Fatalf("warm-up transfer incomplete: delivered %d", r.flow.Delivered())
	}
	// From here on nothing answers: each frame stops at the far stack.
	discard := func(ip.Header, []byte, sim.Time) {}
	r.rcv.Bind(r.vc, discard)
	r.snd.Bind(r.vc, discard)
	exchange := func(send func()) float64 {
		return testing.AllocsPerRun(50, func() { send(); r.k.Run() })
	}
	for _, tc := range []struct {
		name string
		from *ip.Stack
		n    int // IP payload bytes
		send func()
	}{
		{"data segment", r.snd, HeaderSize + mss, func() { s.emit(s.sndNxt, mss, false) }},
		{"ack", r.rcv, HeaderSize, rc.sendAck},
	} {
		frame, _ := tc.from.NewDatagram(tc.n)
		iface := tc.from.Interface()
		nicOnly := exchange(func() {
			if err := iface.SendOwned(r.vc, frame, nil); err != nil {
				t.Fatal(err)
			}
		})
		if got := exchange(tc.send); got != nicOnly {
			t.Errorf("%s: %v allocations per frame, the interface alone %v: want no more",
				tc.name, got, nicOnly)
		}
	}

	s.armTimer()
	ev := s.timer
	if got := testing.AllocsPerRun(50, s.armTimer); got != 0 {
		t.Errorf("RTO re-arm: %v allocations, want 0", got)
	}
	if s.timer != ev || !ev.Scheduled() {
		t.Error("re-arming replaced or dropped the timer event")
	}
	s.Stop()
	if ev.Scheduled() {
		t.Error("Stop left the timer armed")
	}
}

// An MSS beyond what one datagram can carry is capped at the path MTU, so
// the flow runs instead of failing its first send.
func TestFlowMSSCappedAtMTU(t *testing.T) {
	r := newRig(t, Config{MSS: 70000})
	if want := min(r.snd.MTU(), r.rcv.MTU()) - HeaderSize; r.flow.Sender.cfg.MSS != want {
		t.Errorf("MSS %d, want %d", r.flow.Sender.cfg.MSS, want)
	}
	const total = 1 << 20
	r.flow.Start(total, nil)
	r.k.Run()
	if !r.flow.Done() || r.flow.Delivered() != total {
		t.Fatalf("delivered %d of %d bytes", r.flow.Delivered(), total)
	}
}
