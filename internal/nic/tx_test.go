package nic

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"repro/internal/aal"
	"repro/internal/atm"
	"repro/internal/sim"
	"repro/internal/tm"
	"repro/internal/units"
)

// watchWire taps the rig's link to record (time, VC) of every cell.
type wireTap struct {
	at []sim.Time
	vc []atm.VC
}

func tapRig(r *rig) *wireTap {
	tap := &wireTap{}
	orig := r.link
	r.a.AttachSink(atm.SinkFunc(func(c *atm.Cell) {
		tap.at = append(tap.at, r.k.Now())
		tap.vc = append(tap.vc, c.Header.VC())
		orig.Send(c)
	}))
	return tap
}

func TestSerialModeFinishesFramesInOrder(t *testing.T) {
	// Default (no interleave): all of frame 1's cells precede frame 2's,
	// even across VCs.
	r := newRig(t, nil)
	tap := tapRig(r)
	vcA, vcB := atm.VC{VCI: 1}, atm.VC{VCI: 2}
	for _, vc := range []atm.VC{vcA, vcB} {
		r.a.OpenVC(vc)
		r.b.OpenVC(vc)
	}
	r.a.Send(vcA, pkt(2000), nil)
	r.a.Send(vcB, pkt(2000), nil)
	r.k.Run()
	seenB := false
	for _, vc := range tap.vc {
		if vc == vcB {
			seenB = true
		}
		if seenB && vc == vcA {
			t.Fatal("serial mode interleaved cells across VCs")
		}
	}
}

func TestInterleaveModeMixesVCs(t *testing.T) {
	r := newRig(t, func(cfg *Config) { cfg.InterleaveVCs = true })
	tap := tapRig(r)
	vcA, vcB := atm.VC{VCI: 1}, atm.VC{VCI: 2}
	for _, vc := range []atm.VC{vcA, vcB} {
		r.a.OpenVC(vc)
		r.b.OpenVC(vc)
	}
	r.a.Send(vcA, pkt(4000), nil)
	r.a.Send(vcB, pkt(4000), nil)
	r.k.Run()
	// Cells must alternate at least once before either frame finishes.
	switches := 0
	for i := 1; i < len(tap.vc); i++ {
		if tap.vc[i] != tap.vc[i-1] {
			switches++
		}
	}
	if switches < 10 {
		t.Fatalf("only %d VC switches on the wire; frames not interleaved", switches)
	}
	// And both frames still reassemble intact.
	if len(r.received) != 2 {
		t.Fatalf("delivered %d of 2", len(r.received))
	}
	byVC := map[atm.VC][]byte{}
	for _, d := range r.received {
		byVC[d.VC] = d.SDU
	}
	if !bytes.Equal(byVC[vcA], pkt(4000)) || !bytes.Equal(byVC[vcB], pkt(4000)) {
		t.Fatal("interleaved frames corrupted")
	}
}

func TestInterleaveBoundsShortFrameLatency(t *testing.T) {
	// A short frame behind a 64 KiB bulk frame: serially it waits for all
	// 1366 cells; interleaved it finishes orders of magnitude sooner.
	measure := func(interleave bool) sim.Duration {
		r := newRig(t, func(cfg *Config) { cfg.InterleaveVCs = interleave })
		bulk, small := atm.VC{VCI: 1}, atm.VC{VCI: 2}
		for _, vc := range []atm.VC{bulk, small} {
			r.a.OpenVC(vc)
			r.b.OpenVC(vc)
		}
		var smallAt sim.Time
		r.b.OnReceive(func(d Delivered) {
			if d.VC == small {
				smallAt = d.At
			}
		})
		r.a.Send(bulk, pkt(65535), nil)
		r.a.Send(small, pkt(96), nil)
		r.k.Run()
		if smallAt == 0 {
			t.Fatal("small frame never delivered")
		}
		return smallAt
	}
	serial := measure(false)
	inter := measure(true)
	if inter >= serial/4 {
		t.Fatalf("interleaving: small frame at %v vs serial %v — no latency win", inter, serial)
	}
}

func TestPacingSpacesCells(t *testing.T) {
	r := newRig(t, nil)
	tap := tapRig(r)
	vc := atm.VC{VCI: 5}
	r.a.OpenVC(vc)
	r.b.OpenVC(vc)
	// 50k cells/s = 20 µs between cells — far slower than line rate.
	if err := r.a.SetPeakCellRate(vc, 50_000); err != nil {
		t.Fatal(err)
	}
	r.a.Send(vc, pkt(480), nil) // 11 cells
	r.k.Run()
	if len(tap.at) < 11 {
		t.Fatalf("%d cells on the wire", len(tap.at))
	}
	for i := 1; i < len(tap.at); i++ {
		gap := tap.at[i] - tap.at[i-1]
		if gap < 19_000 {
			t.Fatalf("cells %d-%d only %v apart; pacing violated", i-1, i, gap)
		}
	}
	// The packet still arrives intact.
	if len(r.received) != 1 || !bytes.Equal(r.received[0].SDU, pkt(480)) {
		t.Fatal("paced frame corrupted")
	}
}

func TestPacingThrottlesGoodput(t *testing.T) {
	r := newRig(t, nil)
	vc := atm.VC{VCI: 5}
	r.a.OpenVC(vc)
	r.b.OpenVC(vc)
	// 100k cells/s × 48 B = 38.4 Mb/s of SAR payload.
	r.a.SetPeakCellRate(vc, 100_000)
	deadline := sim.Time(20 * sim.Millisecond)
	var send func()
	send = func() {
		if r.k.Now() > deadline {
			return
		}
		r.a.Send(vc, pkt(9180), send)
	}
	send()
	send()
	r.k.RunUntil(deadline)
	got := units.ThroughputBps(int64(r.b.Stats().Rx.Bytes), deadline)
	if got > 40e6 {
		t.Fatalf("paced goodput %.1f Mb/s exceeds the 38.4 Mb/s bucket", got/1e6)
	}
	if got < 25e6 {
		t.Fatalf("paced goodput %.1f Mb/s far below the bucket; pacing over-throttles", got/1e6)
	}
	r.k.Run()
}

func TestPacingUnknownVC(t *testing.T) {
	r := newRig(t, nil)
	if err := r.a.SetPeakCellRate(atm.VC{VCI: 99}, 1000); !errors.Is(err, ErrUnknownVC) {
		t.Fatalf("err = %v", err)
	}
}

func TestPacedAndUnpacedShareTheLink(t *testing.T) {
	// Interleaved mode: a paced CBR flow keeps its spacing while a greedy
	// bulk flow soaks up the remaining slots.
	r := newRig(t, func(cfg *Config) { cfg.InterleaveVCs = true })
	tap := tapRig(r)
	cbr, bulk := atm.VC{VCI: 1}, atm.VC{VCI: 2}
	for _, vc := range []atm.VC{cbr, bulk} {
		r.a.OpenVC(vc)
		r.b.OpenVC(vc)
	}
	r.a.SetPeakCellRate(cbr, 20_000) // 50 µs spacing
	r.a.Send(cbr, pkt(960), nil)     // 21 cells over ~1 ms
	r.a.Send(bulk, pkt(30000), nil)
	r.k.Run()
	var prev sim.Time = -1
	for i, vc := range tap.vc {
		if vc != cbr {
			continue
		}
		if prev >= 0 {
			if gap := tap.at[i] - prev; gap < 49_000 {
				t.Fatalf("CBR spacing %v violated under bulk load", gap)
			}
		}
		prev = tap.at[i]
	}
	if len(r.received) != 2 {
		t.Fatalf("delivered %d of 2", len(r.received))
	}
}

// requireSendsRetired fails unless every copy Send drew from i's buffer
// pool has gone back to it and i's descriptor free list holds the given
// number of records: a descriptor dropped on any path is recycled, not
// stranded.
func requireSendsRetired(t *testing.T, i *Interface, records int) {
	t.Helper()
	hits, misses, puts := i.buf.Stats()
	if hits+misses != puts {
		t.Fatalf("buffer pool: %d gets, %d puts after the run: Send copies stranded", hits+misses, puts)
	}
	n := 0
	for d := i.freeTx; d != nil; d = d.next {
		n++
	}
	if n != records {
		t.Fatalf("%d descriptor records retired, want %d", n, records)
	}
}

func TestCloseVCDropsPendingKeepsActive(t *testing.T) {
	r := newRig(t, nil)
	vc := atm.VC{VCI: 3}
	r.a.OpenVC(vc)
	r.b.OpenVC(vc)
	sent := 0
	onSent := func() { sent++ }
	r.a.Send(vc, pkt(9180), onSent)
	r.a.Send(vc, pkt(9180), onSent) // queued behind
	r.k.RunUntil(500_000)           // frame 1 on the wire, frame 2 queued
	r.a.CloseVC(vc)
	r.k.Run()
	// Frame 1 drains to completion; frame 2 was dropped with the VC.
	if got := r.a.Stats().Tx.Packets; got != 1 {
		t.Fatalf("tx packets after close = %d, want 1", got)
	}
	if sent != 1 {
		t.Fatalf("onSent fired %d times, want 1 (not for the dropped SDU)", sent)
	}
	requireSendsRetired(t, r.a, 2)
}

// A VC closed while the host is still posting descriptors for it drops
// them when they reach the adapter.
func TestCloseVCWhilePosting(t *testing.T) {
	r := newRig(t, nil)
	vc := atm.VC{VCI: 3}
	r.a.OpenVC(vc)
	r.b.OpenVC(vc)
	sent := 0
	for j := 0; j < 8; j++ {
		r.a.Send(vc, pkt(9180), func() { sent++ })
	}
	// The host stack spends about 211 µs on each 9180-byte SDU, so at
	// 200 µs every descriptor is still being posted.
	r.k.RunUntil(200_000)
	if got := r.a.Stats().Tx.Bytes; got != 0 {
		t.Fatalf("adapter accepted %d bytes before the close, want 0", got)
	}
	r.a.CloseVC(vc)
	r.k.Run()
	if got := r.a.Stats().Tx.Packets; got != 0 || sent != 0 {
		t.Fatalf("after close: %d packets sent, onSent fired %d times; want 0 and 0", got, sent)
	}
	requireSendsRetired(t, r.a, 8)
}

// A VC closed and reopened while the host is still posting a descriptor
// for it: the descriptor goes to the reopened VC and its SDU is sent.
func TestCloseReopenWhilePosting(t *testing.T) {
	r := newRig(t, nil)
	vc := atm.VC{VCI: 3}
	r.a.OpenVC(vc)
	r.b.OpenVC(vc)
	sent := 0
	sdu := pkt(9180)
	r.a.Send(vc, sdu, func() { sent++ })
	r.k.RunUntil(200_000) // the host stack is still on the SDU (about 211 µs)
	r.a.CloseVC(vc)
	if err := r.a.OpenVC(vc); err != nil {
		t.Fatal(err)
	}
	r.k.Run()
	if got := r.a.Stats().Tx.Packets; got != 1 || sent != 1 {
		t.Fatalf("after reopen: %d packets sent, onSent fired %d times; want 1 and 1", got, sent)
	}
	if len(r.received) != 1 || !bytes.Equal(r.received[0].SDU, sdu) {
		t.Fatalf("far end received %d SDUs, want the one sent", len(r.received))
	}
	requireSendsRetired(t, r.a, 1)
}

// A VC closed while its frame's start routine runs drops the descriptor
// like a queued one: no cell is sent, onSent does not fire, Send's copy
// recycles and the transmitter goes idle.
func TestCloseVCDuringStartRoutine(t *testing.T) {
	r := newRig(t, nil)
	tap := tapRig(r)
	vc := atm.VC{VCI: 3}
	r.a.OpenVC(vc)
	r.b.OpenVC(vc)
	sent := 0
	r.a.Send(vc, pkt(100), func() { sent++ })
	for now := sim.Time(0); r.a.tx.curDesc == nil; now += 10 {
		if now > sim.Millisecond {
			t.Fatal("the start routine never ran")
		}
		r.k.RunUntil(now)
	}
	r.a.CloseVC(vc)
	r.k.Run()
	if st := r.a.Stats().Tx; st.Packets != 0 || st.Bytes != 0 || sent != 0 || len(tap.vc) != 0 {
		t.Fatalf("after close: %d packets, %d bytes, %d cells sent, onSent fired %d times; want none",
			st.Packets, st.Bytes, len(tap.vc), sent)
	}
	if r.a.tx.pendingWork() {
		t.Fatal("transmitter still has work after the dropped frame")
	}
	requireSendsRetired(t, r.a, 1)
}

func TestInterleaveWithAAL34(t *testing.T) {
	r := newRig(t, func(cfg *Config) {
		cfg.InterleaveVCs = true
		cfg.AAL = aal.AAL34
	})
	vcA, vcB := atm.VC{VCI: 1}, atm.VC{VCI: 2}
	for _, vc := range []atm.VC{vcA, vcB} {
		r.a.OpenVC(vc)
		r.b.OpenVC(vc)
	}
	r.a.Send(vcA, pkt(5000), nil)
	r.a.Send(vcB, pkt(3000), nil)
	r.k.Run()
	if len(r.received) != 2 {
		t.Fatalf("delivered %d of 2", len(r.received))
	}
	byVC := map[atm.VC][]byte{}
	for _, d := range r.received {
		byVC[d.VC] = d.SDU
	}
	if !bytes.Equal(byVC[vcA], pkt(5000)) || !bytes.Equal(byVC[vcB], pkt(3000)) {
		t.Fatal("AAL3/4 interleaved frames corrupted")
	}
}

func TestPacingWithMultiEngineRx(t *testing.T) {
	r := newRig(t, func(cfg *Config) {
		cfg.InterleaveVCs = true
		cfg.RxEngines = 2
	})
	vcs := []atm.VC{{VCI: 1}, {VCI: 2}, {VCI: 3}}
	for _, vc := range vcs {
		r.a.OpenVC(vc)
		r.b.OpenVC(vc)
		r.a.SetPeakCellRate(vc, 80_000)
	}
	for _, vc := range vcs {
		r.a.Send(vc, pkt(2000), nil)
	}
	r.k.Run()
	if len(r.received) != 3 {
		t.Fatalf("delivered %d of 3", len(r.received))
	}
	for _, d := range r.received {
		if !bytes.Equal(d.SDU, pkt(2000)) {
			t.Fatal("payload corrupted with pacing + multi-engine")
		}
	}
}

func TestInterleaveManyVCsFairness(t *testing.T) {
	// 6 equal greedy VCs in interleave mode: delivered byte counts per VC
	// must be roughly equal (round-robin fairness).
	r := newRig(t, func(cfg *Config) { cfg.InterleaveVCs = true })
	var vcs []atm.VC
	for i := 0; i < 6; i++ {
		vc := atm.VC{VCI: uint16(10 + i)}
		vcs = append(vcs, vc)
		r.a.OpenVC(vc)
		r.b.OpenVC(vc)
	}
	bytesByVC := map[atm.VC]int{}
	r.b.OnReceive(func(d Delivered) { bytesByVC[d.VC] += len(d.SDU) })
	deadline := sim.Time(20 * sim.Millisecond)
	for _, vc := range vcs {
		vc := vc
		var send func()
		send = func() {
			if r.k.Now() > deadline {
				return
			}
			r.a.Send(vc, pkt(4000), send)
		}
		send()
	}
	r.k.Run()
	min, max := math.MaxInt, 0
	for _, vc := range vcs {
		n := bytesByVC[vc]
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if min == 0 {
		t.Fatal("a VC was starved entirely")
	}
	if float64(max) > 1.5*float64(min) {
		t.Fatalf("unfair round-robin: min %d max %d bytes", min, max)
	}
}

func TestInterleavedPacingPerVC(t *testing.T) {
	// Interleaving and per-VC pacing compose: three VCs with different
	// peak rates share the wire, each VC's own cells honour its gap, and
	// the unpaced VC is not slowed by the paced ones.
	r := newRig(t, func(cfg *Config) { cfg.InterleaveVCs = true })
	tap := tapRig(r)
	vcSlow, vcFast, vcLine := atm.VC{VCI: 1}, atm.VC{VCI: 2}, atm.VC{VCI: 3}
	for _, vc := range []atm.VC{vcSlow, vcFast, vcLine} {
		r.a.OpenVC(vc)
		r.b.OpenVC(vc)
	}
	if err := r.a.SetPeakCellRate(vcSlow, 50_000); err != nil { // 20 µs gap
		t.Fatal(err)
	}
	if err := r.a.SetPeakCellRate(vcFast, 100_000); err != nil { // 10 µs gap
		t.Fatal(err)
	}
	r.a.Send(vcSlow, pkt(2000), nil)
	r.a.Send(vcFast, pkt(2000), nil)
	r.a.Send(vcLine, pkt(2000), nil)
	r.k.Run()

	// Pacing gates segmentation; individual wire gaps then compress when
	// a paced cell queues behind other VCs' cells in the shared TX FIFO
	// (the jitter CDVT exists for). The per-VC *mean* spacing across the
	// frame must still honour each VC's own gap.
	first := map[atm.VC]sim.Time{}
	lastAt := map[atm.VC]sim.Time{}
	count := map[atm.VC]int{}
	for i, vc := range tap.vc {
		if count[vc] == 0 {
			first[vc] = tap.at[i]
		}
		lastAt[vc] = tap.at[i]
		count[vc]++
	}
	meanGap := func(vc atm.VC) sim.Duration {
		return sim.Duration(lastAt[vc]-first[vc]) / sim.Duration(count[vc]-1)
	}
	if g := meanGap(vcSlow); g < 19_000 {
		t.Fatalf("slow VC mean gap %v, want >= 20µs pacing", g)
	}
	if g := meanGap(vcFast); g < 9_500 {
		t.Fatalf("fast VC mean gap %v, want >= 10µs pacing", g)
	}
	firstLine, lastLine := first[vcLine], lastAt[vcLine]
	// The unpaced VC's 42 cells must finish while the 20 µs VC (840 µs of
	// pacing) is still mid-frame — pacing one VC must not gate another.
	if lastLine-firstLine > 500_000 {
		t.Fatalf("line-rate VC stretched over %v by paced peers", lastLine-firstLine)
	}
	if len(r.received) != 3 {
		t.Fatalf("delivered %d of 3 interleaved paced frames", len(r.received))
	}
	for _, d := range r.received {
		if !bytes.Equal(d.SDU, pkt(2000)) {
			t.Fatalf("VC %v frame corrupted", d.VC)
		}
	}
}

func TestContractShapingPassesPolicer(t *testing.T) {
	// A VC shaped by SetContract must pass a policer enforcing the same
	// contract with zero non-conforming cells — the property E14 measures
	// end to end. CDVT covers the TX FIFO's cell-clock quantization.
	r := newRig(t, nil)
	vc := atm.VC{VCI: 6}
	r.a.OpenVC(vc)
	r.b.OpenVC(vc)
	ct := units.CellTime(r.a.Config().PayloadRate)
	contract := tm.VBRContract(100_000, 40_000, 20, 4*ct)
	if err := r.a.SetContract(vc, contract); err != nil {
		t.Fatal(err)
	}
	pol := tm.NewPolicer(contract)
	orig := r.link
	r.a.AttachSink(atm.SinkFunc(func(c *atm.Cell) {
		if v := pol.Police(r.k.Now(), c.Header.CLP); v != tm.Conform {
			t.Fatalf("shaped cell %d at %v: %v", pol.Stats().Cells, r.k.Now(), v)
		}
		orig.Send(c)
	}))
	deadline := sim.Time(20 * sim.Millisecond)
	var send func()
	send = func() {
		if r.k.Now() > deadline {
			return
		}
		r.a.Send(vc, pkt(4000), send)
	}
	send()
	send()
	r.k.Run()
	if pol.Stats().Cells < 100 {
		t.Fatalf("only %d cells policed", pol.Stats().Cells)
	}
	// And the shaper throttles toward SCR over the long run: 40k cells/s
	// × 48 B = 15.36 Mb/s of SAR payload, plus the MBS bursts the
	// contract lets it reclaim during inter-frame host latency — but far
	// below what PCR alone (38.4 Mb/s) would allow.
	got := units.ThroughputBps(int64(r.b.Stats().Rx.Bytes), deadline)
	if got > 22e6 || got < 10e6 {
		t.Fatalf("contract-shaped goodput %.1f Mb/s, want near 15-18", got/1e6)
	}
}

func TestSetContractValidation(t *testing.T) {
	r := newRig(t, nil)
	vc := atm.VC{VCI: 7}
	if err := r.a.SetContract(vc, tm.CBRContract(1000, 0)); !errors.Is(err, ErrUnknownVC) {
		t.Fatalf("unknown VC: %v", err)
	}
	r.a.OpenVC(vc)
	bad := tm.TrafficContract{Class: tm.RtVBR, PCR: 100, SCR: 200, MBS: 2}
	if err := r.a.SetContract(vc, bad); err == nil {
		t.Fatal("invalid contract accepted")
	}
	if err := r.a.SetContract(vc, tm.CBRContract(1000, 0)); err != nil {
		t.Fatal(err)
	}
	// Zero-PCR contract removes shaping.
	if err := r.a.SetContract(vc, tm.TrafficContract{}); err != nil {
		t.Fatal(err)
	}
}
