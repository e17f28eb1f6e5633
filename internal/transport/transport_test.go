package transport

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/nic"
	"repro/internal/phy"
	"repro/internal/sim"
)

// rig wires a Sender at interface a to a Receiver at interface b over a
// duplex (optionally lossy) link.
type rig struct {
	k        *sim.Kernel
	a, b     *nic.Interface
	ab, ba   *phy.CellLink
	sender   *Sender
	received [][]byte
}

// newRig builds the rig on VC 50; cfg.SelectiveRepeat selects the
// discipline at both ends.
func newRig(t *testing.T, loss float64, cfg Config) *rig {
	t.Helper()
	vc := atm.VC{VCI: 50}
	net, err := core.NewNetwork(core.NetworkSpec{
		Endpoints: []core.EndpointSpec{{Name: "a"}, {Name: "b"}},
		Links: []core.LinkSpec{{Name: "ab", A: core.NodeRef{Node: "a"}, B: core.NodeRef{Node: "b"},
			Delay: 10_000, LossProb: loss, Seed: 11}},
		VCCs: []core.VCCSpec{{Name: "ab", From: "a", To: "b", VC: vc, Duplex: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	l := net.Link("ab")
	r := &rig{k: net.Kernel(), a: net.Endpoint("a").Interface(), b: net.Endpoint("b").Interface(),
		ab: l.Fwd, ba: l.Rev}
	r.sender = NewSender(r.k, r.a, vc, cfg)
	recv := NewReceiver(r.b, vc, func(msg []byte) { r.received = append(r.received, msg) })
	recv.SelectiveRepeat = cfg.SelectiveRepeat
	// Wire the interfaces' delivery paths to the protocol handlers.
	r.b.OnReceive(func(d nic.Delivered) { recv.HandleData(d.SDU) })
	r.a.OnReceive(func(d nic.Delivered) { r.sender.HandleAck(d.SDU) })
	return r
}

func msgBytes(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*41 + 11)
	}
	return b
}

func TestReliableDeliveryCleanLink(t *testing.T) {
	r := newRig(t, 0, DefaultConfig())
	msg := msgBytes(60000) // 8 segments
	var done error = errors.New("pending")
	r.sender.Send(msg, func(err error) { done = err })
	r.k.Run()
	if done != nil {
		t.Fatalf("done err = %v", done)
	}
	if len(r.received) != 1 || !bytes.Equal(r.received[0], msg) {
		t.Fatal("message not delivered intact")
	}
	st := r.sender.Stats()
	if st.Retransmits != 0 || st.Timeouts != 0 {
		t.Fatalf("clean link retransmitted: %+v", st)
	}
}

func TestReliableDeliveryUnderCellLoss(t *testing.T) {
	// 0.2% cell loss: with ~171-cell segments most messages see at least
	// one damaged segment; the transport must still deliver every byte.
	cfg := DefaultConfig()
	cfg.RTO = 5 * sim.Millisecond
	cfg.MaxRetries = 30
	r := newRig(t, 0.002, cfg)
	var sendNext func(i int)
	const msgs = 5
	completed := 0
	sendNext = func(i int) {
		if i == msgs {
			return
		}
		r.sender.Send(msgBytes(40000+i*1000), func(err error) {
			if err != nil {
				t.Fatalf("message %d failed: %v", i, err)
			}
			completed++
			sendNext(i + 1)
		})
	}
	sendNext(0)
	r.k.Run()
	if completed != msgs || len(r.received) != msgs {
		t.Fatalf("completed %d, received %d of %d", completed, len(r.received), msgs)
	}
	for i, msg := range r.received {
		if !bytes.Equal(msg, msgBytes(40000+i*1000)) {
			t.Fatalf("message %d corrupted", i)
		}
	}
	if r.sender.Stats().Retransmits == 0 {
		t.Fatal("no retransmissions under 0.2% cell loss — loss model broken?")
	}
}

func TestSenderFailsWhenLinkDead(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RTO = 2 * sim.Millisecond
	cfg.MaxRetries = 3
	r := newRig(t, 1.0, cfg) // everything lost
	var done error
	r.sender.Send(msgBytes(1000), func(err error) { done = err })
	r.k.Run()
	if !errors.Is(done, ErrTooManyRetries) {
		t.Fatalf("err = %v, want ErrTooManyRetries", done)
	}
	// The connection is closed afterwards.
	if err := r.sender.Send(msgBytes(10), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-failure Send err = %v", err)
	}
}

func TestOneMessageAtATime(t *testing.T) {
	r := newRig(t, 0, DefaultConfig())
	r.sender.Send(msgBytes(100000), nil)
	if err := r.sender.Send(msgBytes(10), nil); !errors.Is(err, ErrBusy) {
		t.Fatalf("err = %v, want ErrBusy", err)
	}
	r.k.Run()
}

func TestEmptyMessageRejected(t *testing.T) {
	r := newRig(t, 0, DefaultConfig())
	if err := r.sender.Send(nil, nil); err == nil {
		t.Fatal("empty message accepted")
	}
}

func TestLostFinalAckRegenerated(t *testing.T) {
	// Drop cells only during a window around the first completion, so the
	// final ACK vanishes; the sender's retransmission must elicit a fresh
	// ACK, not a duplicate delivery.
	cfg := DefaultConfig()
	cfg.RTO = 3 * sim.Millisecond
	r := newRig(t, 0, cfg)
	msg := msgBytes(7000) // single segment
	var doneAt sim.Time
	r.sender.Send(msg, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		doneAt = r.k.Now()
	})
	// Kill the reverse path for the first 2 ms (the first ACK dies).
	r.ba.LossProb = 1.0
	r.k.After(2*sim.Millisecond, func() { r.ba.LossProb = 0 })
	r.k.Run()
	if doneAt == 0 {
		t.Fatal("sender never completed")
	}
	if len(r.received) != 1 {
		t.Fatalf("delivered %d times, want exactly once", len(r.received))
	}
	if r.sender.Stats().Retransmits == 0 {
		t.Fatal("final ACK loss caused no retransmission")
	}
}

func TestGoBackNWastesBandwidthUnderLoss(t *testing.T) {
	// The design's known cost: a mid-window loss forces retransmission of
	// everything after it; the receiver counts the duplicates.
	cfg := DefaultConfig()
	cfg.RTO = 5 * sim.Millisecond
	cfg.MaxRetries = 50
	r := newRig(t, 0.004, cfg)
	done := false
	r.sender.Send(msgBytes(120000), func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		done = true
	})
	r.k.Run()
	if !done {
		t.Fatal("message never completed")
	}
	st := r.sender.Stats()
	if st.Retransmits == 0 {
		t.Fatal("no retransmissions at 0.4% loss on a 15-segment message")
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	k := sim.NewKernel()
	defer func() {
		if recover() == nil {
			t.Fatal("zero window did not panic")
		}
	}()
	NewSender(k, nil, atm.VC{}, Config{})
}

// newRigSR is newRig with selective repeat on both ends.
func newRigSR(t *testing.T, loss float64, cfg Config) *rig {
	t.Helper()
	cfg.SelectiveRepeat = true
	return newRig(t, loss, cfg)
}

func TestSelectiveRepeatDelivers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RTO = 5 * sim.Millisecond
	cfg.MaxRetries = 50
	r := newRigSR(t, 0.002, cfg)
	msg := msgBytes(120000)
	var done error = errors.New("pending")
	r.sender.Send(msg, func(err error) { done = err })
	r.k.Run()
	if done != nil {
		t.Fatalf("err = %v", done)
	}
	if len(r.received) != 1 || !bytes.Equal(r.received[0], msg) {
		t.Fatal("SR message corrupted")
	}
}

func TestSelectiveRepeatRetransmitsLessThanGBN(t *testing.T) {
	run := func(sr bool) uint64 {
		cfg := DefaultConfig()
		cfg.RTO = 5 * sim.Millisecond
		cfg.MaxRetries = 100
		var r *rig
		if sr {
			r = newRigSR(t, 0.003, cfg)
		} else {
			r = newRig(t, 0.003, cfg)
		}
		ok := false
		r.sender.Send(msgBytes(200000), func(err error) {
			if err != nil {
				t.Fatal(err)
			}
			ok = true
		})
		r.k.Run()
		if !ok {
			t.Fatal("transfer incomplete")
		}
		return r.sender.Stats().Retransmits
	}
	gbn := run(false)
	sr := run(true)
	if gbn == 0 {
		t.Fatal("no retransmissions at 0.3% loss; rig broken")
	}
	if sr >= gbn {
		t.Fatalf("selective repeat retransmitted %d >= go-back-N's %d", sr, gbn)
	}
}

func TestSelectiveRepeatOrderPreserved(t *testing.T) {
	// Force out-of-order arrival: drop one mid-window segment's cells by
	// pulsing loss, then verify byte-exact reassembly.
	cfg := DefaultConfig()
	cfg.RTO = 4 * sim.Millisecond
	cfg.MaxRetries = 60
	r := newRigSR(t, 0, cfg)
	msg := msgBytes(64 * 1024)
	done := false
	r.sender.Send(msg, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		done = true
	})
	// 100% loss for a slice of the first window: some segments vanish,
	// later ones arrive out of order and must be held.
	r.k.After(300_000, func() { r.ab.LossProb = 1 })
	r.k.After(900_000, func() { r.ab.LossProb = 0 })
	r.k.Run()
	if !done || len(r.received) != 1 {
		t.Fatal("transfer incomplete")
	}
	if !bytes.Equal(r.received[0], msg) {
		t.Fatal("out-of-order hold corrupted the message")
	}
}

func TestOneCellSDUBoundary(t *testing.T) {
	// DataHeaderSize + 30 payload bytes = a 40-byte SDU: with AAL5's 8-byte
	// trailer that is exactly one cell. One byte more must spill into a
	// second cell.
	for _, tc := range []struct {
		payload, cells int
	}{
		{30, 1}, // 40-byte SDU: boundary, exactly one cell
		{31, 2}, // 41-byte SDU: trailer no longer fits
	} {
		r := newRig(t, 0, DefaultConfig())
		var done error = errors.New("pending")
		if err := r.sender.Send(msgBytes(tc.payload), func(err error) { done = err }); err != nil {
			t.Fatal(err)
		}
		r.k.Run()
		if done != nil {
			t.Fatalf("payload %d: done err = %v", tc.payload, done)
		}
		if len(r.received) != 1 || len(r.received[0]) != tc.payload {
			t.Fatalf("payload %d: delivery %d msgs", tc.payload, len(r.received))
		}
		if got := r.b.Stats().Rx.Cells; got != uint64(tc.cells) {
			t.Errorf("payload %d: %d data cells at b, want %d", tc.payload, got, tc.cells)
		}
	}
}

func TestSendRejectsOversizedSegment(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SegmentSize = 65530 // DataHeaderSize + 65530 > the default 65535 MaxSDU
	r := newRig(t, 0, cfg)
	err := r.sender.Send(msgBytes(70000), nil)
	if !errors.Is(err, ErrSDUTooLarge) {
		t.Fatalf("oversized segment: err = %v, want ErrSDUTooLarge", err)
	}
	// The rejection happens before any state changes: the sender is neither
	// busy nor closed, and a message whose single segment fits still goes.
	var done error = errors.New("pending")
	if err := r.sender.Send(msgBytes(100), func(e error) { done = e }); err != nil {
		t.Fatalf("small message after rejection: %v", err)
	}
	r.k.Run()
	if done != nil || len(r.received) != 1 {
		t.Fatalf("recovery send failed: done=%v received=%d", done, len(r.received))
	}
}

func TestMaxSDUSizedSegmentStillFits(t *testing.T) {
	// The largest legal segment: DataHeaderSize + SegmentSize == MaxSDU.
	cfg := DefaultConfig()
	max := nic.DefaultConfig("x").MaxSDU
	cfg.SegmentSize = max - DataHeaderSize
	r := newRig(t, 0, cfg)
	var done error = errors.New("pending")
	if err := r.sender.Send(msgBytes(cfg.SegmentSize), func(e error) { done = e }); err != nil {
		t.Fatal(err)
	}
	r.k.Run()
	if done != nil || len(r.received) != 1 || len(r.received[0]) != cfg.SegmentSize {
		t.Fatalf("max-SDU segment not delivered: done=%v", done)
	}
}
