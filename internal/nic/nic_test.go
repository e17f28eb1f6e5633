package nic

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/aal"
	"repro/internal/atm"
	"repro/internal/bus"
	"repro/internal/host"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/units"
)

// rig is a two-station test bench: a sends to b over a cell link.
type rig struct {
	k        *sim.Kernel
	a, b     *Interface
	hostA    *host.Host
	hostB    *host.Host
	link     *phy.CellLink
	received []Delivered
}

func newRig(t *testing.T, mod func(cfg *Config)) *rig {
	t.Helper()
	k := sim.NewKernel()
	r := &rig{k: k}
	r.hostA = host.New(k, host.DefaultConfig())
	r.hostB = host.New(k, host.DefaultConfig())
	busA := bus.New(k, bus.DefaultConfig())
	busB := bus.New(k, bus.DefaultConfig())

	cfgA := DefaultConfig("a")
	cfgB := DefaultConfig("b")
	if mod != nil {
		mod(&cfgA)
		cfgB = cfgA
		cfgB.Name = "b"
	}
	var err error
	r.a, err = New(k, cfgA, r.hostA, busA, atm.NewPool(0))
	if err != nil {
		t.Fatal(err)
	}
	r.b, err = New(k, cfgB, r.hostB, busB, atm.NewPool(0))
	if err != nil {
		t.Fatal(err)
	}
	r.link = phy.NewCellLink(k, 10_000, 1, r.b, atm.NewPool(0)) // 2 km fiber
	r.a.AttachSink(atm.SinkFunc(r.link.Send))
	r.b.OnReceive(func(d Delivered) {
		d.SDU = bytes.Clone(d.SDU)
		r.received = append(r.received, d)
	})
	return r
}

func vc1() atm.VC { return atm.VC{VPI: 0, VCI: 42} }

func pkt(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*37 + 5)
	}
	return b
}

func TestEndToEndSinglePacket(t *testing.T) {
	r := newRig(t, nil)
	if err := r.a.OpenVC(vc1()); err != nil {
		t.Fatal(err)
	}
	if err := r.b.OpenVC(vc1()); err != nil {
		t.Fatal(err)
	}
	sent := false
	if err := r.a.Send(vc1(), pkt(9180), func() { sent = true }); err != nil {
		t.Fatal(err)
	}
	r.k.Run()
	if !sent {
		t.Fatal("onSent never fired")
	}
	if len(r.received) != 1 {
		t.Fatalf("received %d packets, want 1", len(r.received))
	}
	d := r.received[0]
	if !bytes.Equal(d.SDU, pkt(9180)) {
		t.Fatal("payload corrupted end to end")
	}
	if d.VC != vc1() {
		t.Fatalf("delivered on VC %v", d.VC)
	}
	if d.Cells != aal.CellsForSDU5(9180) {
		t.Fatalf("cells = %d, want %d", d.Cells, aal.CellsForSDU5(9180))
	}
}

func TestEndToEndTimingSanity(t *testing.T) {
	// A 9180-byte packet is 192 cells; at STS-3c payload rate the wire
	// alone needs 192 * 2.831 µs = 543 µs. End-to-end must exceed that
	// but not by an order of magnitude.
	r := newRig(t, nil)
	r.a.OpenVC(vc1())
	r.b.OpenVC(vc1())
	r.a.Send(vc1(), pkt(9180), nil)
	end := r.k.Run()
	wire := sim.Duration(192) * units.CellTime(units.STS3cPayload)
	if end < wire {
		t.Fatalf("finished at %v, faster than the wire %v", end, wire)
	}
	if end > 3*wire {
		t.Fatalf("finished at %v, way beyond wire time %v — pipeline stalled", end, wire)
	}
}

func TestManyPacketsAllDelivered(t *testing.T) {
	r := newRig(t, nil)
	r.a.OpenVC(vc1())
	r.b.OpenVC(vc1())
	const n = 50
	for i := 0; i < n; i++ {
		if err := r.a.Send(vc1(), pkt(1000+i), nil); err != nil {
			t.Fatal(err)
		}
	}
	r.k.Run()
	if len(r.received) != n {
		t.Fatalf("received %d, want %d", len(r.received), n)
	}
	for i, d := range r.received {
		if !bytes.Equal(d.SDU, pkt(1000+i)) {
			t.Fatalf("packet %d corrupted or reordered", i)
		}
	}
	st := r.a.Stats()
	if st.Tx.Packets != n {
		t.Fatalf("tx packets = %d", st.Tx.Packets)
	}
}

func TestAAL34Mode(t *testing.T) {
	r := newRig(t, func(cfg *Config) { cfg.AAL = aal.AAL34 })
	r.a.OpenVC(vc1())
	r.b.OpenVC(vc1())
	r.a.Send(vc1(), pkt(5000), nil)
	r.k.Run()
	if len(r.received) != 1 || !bytes.Equal(r.received[0].SDU, pkt(5000)) {
		t.Fatal("AAL3/4 end-to-end failed")
	}
	if r.received[0].Cells != aal.CellsForSDU34(5000) {
		t.Fatalf("cells = %d, want %d", r.received[0].Cells, aal.CellsForSDU34(5000))
	}
}

func TestCellLossDetectedNotDelivered(t *testing.T) {
	r := newRig(t, nil)
	r.a.OpenVC(vc1())
	r.b.OpenVC(vc1())
	r.link.LossProb = 0.02 // 2% cell loss: most multi-cell frames die
	const n = 30
	for i := 0; i < n; i++ {
		r.a.Send(vc1(), pkt(4800), nil) // ~101 cells each
	}
	r.k.Run()
	st := r.b.Stats()
	if len(r.received)+int(st.Rx.AALErrors) == 0 {
		t.Fatal("nothing received, nothing errored — cells vanished silently")
	}
	if st.Rx.AALErrors == 0 {
		t.Fatal("2% loss on 100-cell frames produced no AAL errors")
	}
	// Whatever was delivered is intact.
	for _, d := range r.received {
		if !bytes.Equal(d.SDU, pkt(4800)) {
			t.Fatal("corrupted frame delivered")
		}
	}
}

func TestCorruptionDetected(t *testing.T) {
	r := newRig(t, nil)
	r.a.OpenVC(vc1())
	r.b.OpenVC(vc1())
	r.link.CorruptProb = 0.05
	for i := 0; i < 20; i++ {
		r.a.Send(vc1(), pkt(2000), nil)
	}
	r.k.Run()
	st := r.b.Stats()
	if st.Rx.AALErrors == 0 {
		t.Fatal("payload corruption never detected")
	}
	for _, d := range r.received {
		if !bytes.Equal(d.SDU, pkt(2000)) {
			t.Fatal("corrupted frame delivered")
		}
	}
}

func TestUnknownVCDropped(t *testing.T) {
	r := newRig(t, nil)
	r.a.OpenVC(vc1())
	// b never opens the VC.
	r.a.Send(vc1(), pkt(100), nil)
	r.k.Run()
	if len(r.received) != 0 {
		t.Fatal("packet delivered on unopened VC")
	}
	if r.b.Stats().Rx.UnknownVC == 0 {
		t.Fatal("unknown-VC cells not counted")
	}
}

func TestSendValidation(t *testing.T) {
	r := newRig(t, nil)
	r.a.OpenVC(vc1())
	if err := r.a.Send(vc1(), nil, nil); !errors.Is(err, ErrBadSDU) {
		t.Fatalf("empty SDU err = %v", err)
	}
	if err := r.a.Send(vc1(), make([]byte, aal.MaxSDU+1), nil); !errors.Is(err, ErrBadSDU) {
		t.Fatalf("oversize SDU err = %v", err)
	}
	if err := r.a.Send(atm.VC{VCI: 999}, pkt(10), nil); !errors.Is(err, ErrUnknownVC) {
		t.Fatalf("unopened VC err = %v", err)
	}
}

func TestOpenVCValidation(t *testing.T) {
	r := newRig(t, func(cfg *Config) { cfg.MaxVCs = 2 })
	if err := r.a.OpenVC(vc1()); err != nil {
		t.Fatal(err)
	}
	if err := r.a.OpenVC(vc1()); !errors.Is(err, ErrVCExists) {
		t.Fatalf("dup err = %v", err)
	}
	r.a.OpenVC(atm.VC{VCI: 2})
	if err := r.a.OpenVC(atm.VC{VCI: 3}); !errors.Is(err, ErrTableFull) {
		t.Fatalf("full err = %v", err)
	}
}

func TestCloseVCDiscardsPartialFrame(t *testing.T) {
	r := newRig(t, nil)
	r.a.OpenVC(vc1())
	r.b.OpenVC(vc1())
	r.a.Send(vc1(), pkt(9180), nil)
	// Close the receive VC mid-flight.
	r.k.RunUntil(200_000) // ~70 cells in
	r.b.CloseVC(vc1())
	r.k.Run()
	if len(r.received) != 0 {
		t.Fatal("packet delivered after CloseVC")
	}
	// Reopening works and fresh traffic flows.
	r.b.OpenVC(vc1())
	r.a.Send(vc1(), pkt(500), nil)
	r.k.Run()
	if len(r.received) != 1 || !bytes.Equal(r.received[0].SDU, pkt(500)) {
		t.Fatal("traffic broken after reopen")
	}
}

func TestThroughputApproachesLineRate(t *testing.T) {
	// Closed-loop bulk transfer of big packets at STS-3c must land close
	// to the AAL5 payload ceiling (48/53 of 149.76 = 135.6 Mb/s).
	r := newRig(t, nil)
	r.a.OpenVC(vc1())
	r.b.OpenVC(vc1())
	payload := pkt(9180)
	deadline := sim.Time(50 * sim.Millisecond)
	var send func()
	send = func() {
		if r.k.Now() > deadline {
			return
		}
		r.a.Send(vc1(), payload, send)
	}
	// Keep the pipe full: several packets outstanding.
	for i := 0; i < 4; i++ {
		send()
	}
	r.k.RunUntil(deadline + sim.Time(5*sim.Millisecond))
	st := r.b.Stats()
	got := units.ThroughputBps(int64(st.Rx.Bytes), r.k.Now())
	// SDU goodput ceiling: 9180/(192*53) bytes of every wire byte.
	ceiling := float64(units.STS3cPayload) * 9180 / float64(192*53)
	if got < 0.85*ceiling {
		t.Fatalf("goodput %.1f Mb/s below 85%% of ceiling %.1f Mb/s", got/1e6, ceiling/1e6)
	}
	if got > ceiling*1.02 {
		t.Fatalf("goodput %.1f Mb/s exceeds physics %.1f Mb/s", got/1e6, ceiling/1e6)
	}
}

func TestRxEngineBottleneckAtSTS12c(t *testing.T) {
	// At 622 Mb/s the 25 MHz receive engine cannot keep up with minimum
	// frames; the RX FIFO must overflow and goodput must fall well below
	// the wire. This is the paper's motivation for faster engines or
	// hardware assist at OC-12.
	r := newRig(t, func(cfg *Config) {
		cfg.PayloadRate = units.STS12cPayload
	})
	r.a.OpenVC(vc1())
	r.b.OpenVC(vc1())
	// Small packets maximize per-cell overhead on the receive side.
	deadline := sim.Time(10 * sim.Millisecond)
	var send func()
	send = func() {
		if r.k.Now() > deadline {
			return
		}
		r.a.Send(vc1(), pkt(40), send)
	}
	for i := 0; i < 16; i++ {
		send()
	}
	r.k.RunUntil(deadline + sim.Time(2*sim.Millisecond))
	st := r.b.Stats()
	if st.Rx.FifoDrops == 0 && st.Tx.IdleSlots > 0 {
		// The TX side might itself be the bottleneck for tiny packets;
		// accept either engine saturating, but something must give.
		if r.a.Stats().TxEngUtil < 0.95 && r.b.Stats().RxEngUtil < 0.95 {
			t.Fatalf("no bottleneck at STS-12c: rx drops %d, tx util %.2f, rx util %.2f",
				st.Rx.FifoDrops, r.a.Stats().TxEngUtil, r.b.Stats().RxEngUtil)
		}
	}
}

func TestAdapterSRAMExhaustion(t *testing.T) {
	// Two 192-cell frames arrive interleaved on two VCs, each needing six
	// 32-cell pages. An SRAM that holds little more than one frame's pages
	// must drop one frame for memory; one that holds both delivers both.
	run := func(sram int) *rig {
		r := newRig(t, func(cfg *Config) {
			cfg.InterleaveVCs = true
			cfg.AdapterSRAM = sram
		})
		vcA, vcB := atm.VC{VCI: 10}, atm.VC{VCI: 11}
		for _, vc := range []atm.VC{vcA, vcB} {
			r.a.OpenVC(vc)
			r.b.OpenVC(vc)
		}
		r.a.Send(vcA, pkt(9180), nil)
		r.a.Send(vcB, pkt(9180), nil)
		r.k.Run()
		if used := r.b.SRAMUsed(); used != 0 {
			t.Fatalf("SRAM %d: %d bytes still pinned after the run", sram, used)
		}
		return r
	}
	starved := run(12000)
	if st := starved.b.Stats(); st.Rx.SRAMDrops == 0 || st.SRAMPeak > 12000 {
		t.Fatalf("no SRAM drops within a 12000-byte SRAM: %+v, peak %d", st.Rx, st.SRAMPeak)
	}
	if r := run(70000); len(r.received) != 2 || r.b.Stats().Rx.SRAMDrops != 0 {
		t.Fatalf("70000-byte SRAM delivered %d of 2", len(r.received))
	}
}

func TestHostInvolvedPerPacketNotPerCell(t *testing.T) {
	r := newRig(t, nil)
	r.a.OpenVC(vc1())
	r.b.OpenVC(vc1())
	r.a.Send(vc1(), pkt(9180), nil) // 192 cells
	r.k.Run()
	// Receive host: exactly one rx interrupt. Transmit host: one tx-done.
	if got := r.hostB.Interrupts(); got != 1 {
		t.Fatalf("receive host took %d interrupts for one 192-cell packet", got)
	}
	if got := r.hostA.Interrupts(); got != 1 {
		t.Fatalf("transmit host took %d interrupts", got)
	}
}

func TestInterleavedVCsReassembleIndependently(t *testing.T) {
	// Two senders' cells interleave at the receiver; per-VC reassembly
	// must keep them apart. Simulate by sending on two VCs of the same
	// interface back to back (cells of packet 2 chase packet 1).
	r := newRig(t, nil)
	vcA, vcB := atm.VC{VCI: 7}, atm.VC{VCI: 8}
	for _, vc := range []atm.VC{vcA, vcB} {
		r.a.OpenVC(vc)
		r.b.OpenVC(vc)
	}
	r.a.Send(vcA, pkt(3000), nil)
	r.a.Send(vcB, pkt(2000), nil)
	r.k.Run()
	if len(r.received) != 2 {
		t.Fatalf("received %d, want 2", len(r.received))
	}
	byVC := map[atm.VC][]byte{}
	for _, d := range r.received {
		byVC[d.VC] = d.SDU
	}
	if !bytes.Equal(byVC[vcA], pkt(3000)) || !bytes.Equal(byVC[vcB], pkt(2000)) {
		t.Fatal("VC payloads mixed up")
	}
}

func TestStatsAccounting(t *testing.T) {
	r := newRig(t, nil)
	r.a.OpenVC(vc1())
	r.b.OpenVC(vc1())
	r.a.Send(vc1(), pkt(9180), nil)
	r.k.Run()
	a, b := r.a.Stats(), r.b.Stats()
	if a.Tx.Cells != 192 {
		t.Fatalf("tx cells = %d, want 192", a.Tx.Cells)
	}
	if b.Rx.Cells != 192 {
		t.Fatalf("rx cells = %d, want 192", b.Rx.Cells)
	}
	if a.Tx.Bytes != 9180 || b.Rx.Bytes != 9180 {
		t.Fatalf("byte accounting: tx %d rx %d", a.Tx.Bytes, b.Rx.Bytes)
	}
	if a.TxEngUtil == 0 || b.RxEngUtil == 0 {
		t.Fatal("engine utilization not reported")
	}
}

func TestConfigValidation(t *testing.T) {
	k := sim.NewKernel()
	h := host.New(k, host.DefaultConfig())
	b := bus.New(k, bus.DefaultConfig())
	bad := DefaultConfig("x")
	bad.TxFifoDepth = 0
	if _, err := New(k, bad, h, b, atm.NewPool(0)); err == nil {
		t.Fatal("zero FIFO depth accepted")
	}
	bad = DefaultConfig("x")
	bad.PayloadRate = 0
	if _, err := New(k, bad, h, b, atm.NewPool(0)); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := New(k, DefaultConfig("x"), nil, b, atm.NewPool(0)); err == nil {
		t.Fatal("nil host accepted")
	}
}
