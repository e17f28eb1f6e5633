package sonetlink

import (
	"bytes"
	"testing"

	"repro/internal/atm"
	"repro/internal/bus"
	"repro/internal/host"
	"repro/internal/metrics"
	"repro/internal/nic"
	"repro/internal/sim"
	"repro/internal/sonet"
	"repro/internal/tm"
	"repro/internal/trace"
	"repro/internal/units"
)

func pkt(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*19 + 1)
	}
	return b
}

type rig struct {
	k    *sim.Kernel
	a, b *nic.Interface
	link *Link
	rec  *trace.Recorder
	got  [][]byte
}

func newRig(t testing.TB, rate sonet.Rate) *rig { return newTracedRig(t, rate, 0) }

// newTracedRig is newRig with a flight recorder of the given capacity on
// the link (none when capacity is 0).
func newTracedRig(t testing.TB, rate sonet.Rate, capacity int) *rig {
	t.Helper()
	k := sim.NewKernel()
	r := &rig{k: k}
	if capacity > 0 {
		r.rec = trace.NewRecorder(k, capacity)
	}
	mk := func(name string) *nic.Interface {
		cfg := nic.DefaultConfig(name)
		cfg.PayloadRate = rate.PayloadRate()
		// Deep enough to ride out the framer's 125 µs burst granularity.
		cfg.RxFifoDepth = 128
		iface, err := nic.New(k, cfg, host.New(k, host.DefaultConfig()), bus.New(k, bus.DefaultConfig()), atm.NewPool(0))
		if err != nil {
			t.Fatal(err)
		}
		return iface
	}
	r.a, r.b = mk("a"), mk("b")
	link, err := Connect(k, Config{Rate: rate, Delay: 10_000, Seed: 3, Recorder: r.rec}, r.a, r.b)
	if err != nil {
		t.Fatal(err)
	}
	r.link = link
	r.b.OnReceive(func(d nic.Delivered) { r.got = append(r.got, bytes.Clone(d.SDU)) })
	return r
}

func vc() atm.VC { return atm.VC{VCI: 33} }

// frameEachWay sends one frame in each direction of the rig's clean link
// and runs until both have been parsed: build, wire, deframe, delineate and
// decode. With nothing queued every cell is idle fill, so the interfaces
// see nothing and the kernel goes idle again.
func (r *rig) frameEachWay() {
	r.link.AtoB.sendFrame()
	r.link.BtoA.sendFrame()
	r.k.Run()
}

// TestFramedPairAllocatesNothing pins the SONET line path at zero
// allocations per frame once warm: the wire buffers come back to their
// pools, and framing, deframing and delineation run in preallocated
// buffers.
func TestFramedPairAllocatesNothing(t *testing.T) {
	r := newRig(t, sonet.STS3c)
	r.k.Run() // the bring-up frames lock delineation both ways
	r.frameEachWay()
	if avg := testing.AllocsPerRun(100, r.frameEachWay); avg != 0 {
		t.Fatalf("one frame each way allocates %.1f times, want 0", avg)
	}
	if st := r.link.AtoB.Stats(); st.Delineation.SyncAcquired != 1 || st.Delineation.SyncLosses != 0 {
		t.Fatalf("delineation %+v, want one lock held throughout", st.Delineation)
	}
}

// BenchmarkFramedPair times one frame each way through a clean STS-3c pair.
func BenchmarkFramedPair(b *testing.B) {
	r := newRig(b, sonet.STS3c)
	r.k.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.frameEachWay()
	}
}

// TestEveryCellCountDelivered sends one SDU of every AAL5 length from 1 to
// 200 cells, each on a fresh pair, at both rates. A data cell whose tail
// crosses into the next frame must not wait in the framer for traffic that
// never comes: an STS-3c frame carries 44 cells and 8 bytes, so SDUs of 44,
// 88, 132 and 176 cells stalled when the framer stopped at an empty queue.
func TestEveryCellCountDelivered(t *testing.T) {
	for _, rate := range []sonet.Rate{sonet.STS3c, sonet.STS12c} {
		for cells := 1; cells <= 200; cells++ {
			r := newRig(t, rate)
			r.a.OpenVC(vc())
			r.b.OpenVC(vc())
			payload := pkt(cells*atm.PayloadSize - 8) // 8: the AAL5 trailer
			if err := r.a.Send(vc(), payload, nil); err != nil {
				t.Fatal(err)
			}
			r.k.Run()
			if len(r.got) != 1 || !bytes.Equal(r.got[0], payload) {
				t.Errorf("%v, %d cells: delivered %d SDUs, want 1", rate, cells, len(r.got))
			}
		}
	}
}

func TestSonetPathEndToEnd(t *testing.T) {
	r := newRig(t, sonet.STS3c)
	r.a.OpenVC(vc())
	r.b.OpenVC(vc())
	payload := pkt(9180)
	if err := r.a.Send(vc(), payload, nil); err != nil {
		t.Fatal(err)
	}
	r.k.Run()
	if len(r.got) != 1 || !bytes.Equal(r.got[0], payload) {
		t.Fatalf("SONET path delivered %d packets", len(r.got))
	}
	st := r.link.AtoB.Stats()
	if st.Frames == 0 || st.DataCells != 192 {
		t.Fatalf("stats %+v", st)
	}
	if st.Delineation.SyncAcquired != 1 || st.Delineation.SyncLosses != 0 {
		t.Fatalf("delineation %+v", st.Delineation)
	}
	if st.Deframer.B1Errors != 0 || st.Deframer.LOSFrames != 0 {
		t.Fatalf("clean fiber reported section errors: %+v", st.Deframer)
	}
}

func TestSonetPathManyPackets(t *testing.T) {
	r := newRig(t, sonet.STS3c)
	r.a.OpenVC(vc())
	r.b.OpenVC(vc())
	const n = 20
	for i := 0; i < n; i++ {
		if err := r.a.Send(vc(), pkt(1000+17*i), nil); err != nil {
			t.Fatal(err)
		}
	}
	r.k.Run()
	if len(r.got) != n {
		t.Fatalf("delivered %d of %d", len(r.got), n)
	}
	for i, sdu := range r.got {
		if !bytes.Equal(sdu, pkt(1000+17*i)) {
			t.Fatalf("packet %d corrupted or reordered", i)
		}
	}
}

func TestSonetPathSTS12c(t *testing.T) {
	r := newRig(t, sonet.STS12c)
	r.a.OpenVC(vc())
	r.b.OpenVC(vc())
	payload := pkt(4096)
	r.a.Send(vc(), payload, nil)
	r.k.Run()
	if len(r.got) != 1 || !bytes.Equal(r.got[0], payload) {
		t.Fatal("STS-12c SONET path failed")
	}
}

func TestSonetIdleFillCounted(t *testing.T) {
	r := newRig(t, sonet.STS3c)
	r.a.OpenVC(vc())
	r.b.OpenVC(vc())
	r.a.Send(vc(), pkt(96), nil) // 3 cells in a ~44-cell frame
	r.k.Run()
	st := r.link.AtoB.Stats()
	if st.IdleCells == 0 {
		t.Fatal("no idle fill despite a nearly empty frame")
	}
	if st.DataCells != 3 {
		t.Fatalf("data cells = %d, want 3", st.DataCells)
	}
}

func TestSonetBitErrorsDetectedNotDelivered(t *testing.T) {
	k := sim.NewKernel()
	mk := func(name string) *nic.Interface {
		cfg := nic.DefaultConfig(name)
		cfg.RxFifoDepth = 128
		iface, _ := nic.New(k, cfg, host.New(k, host.DefaultConfig()), bus.New(k, bus.DefaultConfig()), atm.NewPool(0))
		return iface
	}
	a, b := mk("a"), mk("b")
	link, err := Connect(k, Config{Rate: sonet.STS3c, Delay: 10_000, BitErrProb: 1, Seed: 7}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	b.OnReceive(func(d nic.Delivered) { got = append(got, bytes.Clone(d.SDU)) })
	a.OpenVC(vc())
	b.OpenVC(vc())
	payload := pkt(9180)
	const n = 10
	for i := 0; i < n; i++ {
		a.Send(vc(), payload, nil)
	}
	k.Run()
	// Every delivered packet is intact...
	for _, sdu := range got {
		if !bytes.Equal(sdu, payload) {
			t.Fatal("corrupted SDU delivered through SONET path")
		}
	}
	// ...and the damage showed up somewhere observable.
	st := link.AtoB.Stats()
	rx := b.Stats().Rx
	damage := st.Deframer.B1Errors + st.Delineation.HeaderDropped +
		uint64(st.Delineation.HeaderCorrected) + rx.AALErrors
	if damage == 0 {
		t.Fatalf("1 bit error/frame left no trace: link %+v rx %+v", st, rx)
	}
}

func TestSonetHeaderCorrectionOnTheRealPath(t *testing.T) {
	// With one bit error per frame, some errors land in cell headers; the
	// delineator must fix single-bit header damage rather than drop.
	k := sim.NewKernel()
	mk := func(name string) *nic.Interface {
		cfg := nic.DefaultConfig(name)
		cfg.RxFifoDepth = 128
		iface, _ := nic.New(k, cfg, host.New(k, host.DefaultConfig()), bus.New(k, bus.DefaultConfig()), atm.NewPool(0))
		return iface
	}
	a, b := mk("a"), mk("b")
	link, _ := Connect(k, Config{Rate: sonet.STS3c, Delay: 0, BitErrProb: 1, Seed: 11}, a, b)
	a.OpenVC(vc())
	b.OpenVC(vc())
	for i := 0; i < 40; i++ {
		a.Send(vc(), pkt(9180), nil)
	}
	k.Run()
	if link.AtoB.Stats().Delineation.HeaderCorrected == 0 {
		t.Skip("no bit error landed in a header in this seeded run")
	}
}

func TestRateMismatchRejected(t *testing.T) {
	k := sim.NewKernel()
	cfg := nic.DefaultConfig("a") // STS-3c payload rate
	iface, _ := nic.New(k, cfg, host.New(k, host.DefaultConfig()), bus.New(k, bus.DefaultConfig()), atm.NewPool(0))
	if _, err := Connect(k, Config{Rate: sonet.STS12c}, iface, iface); err == nil {
		t.Fatal("rate mismatch accepted")
	}
}

func TestSonetThroughputNearLineRate(t *testing.T) {
	r := newRig(t, sonet.STS3c)
	r.a.OpenVC(vc())
	r.b.OpenVC(vc())
	deadline := sim.Time(30 * sim.Millisecond)
	payload := pkt(9180)
	var send func()
	send = func() {
		if r.k.Now() > deadline {
			return
		}
		r.a.Send(vc(), payload, send)
	}
	for i := 0; i < 4; i++ {
		send()
	}
	r.k.RunUntil(deadline)
	bytesRx := r.b.Stats().Rx.Bytes
	r.k.Run()
	got := units.ThroughputBps(int64(bytesRx), deadline)
	ceiling := float64(units.STS3cPayload) * 9180 / float64(192*53)
	if got < 0.8*ceiling {
		t.Fatalf("SONET-path goodput %.1f Mb/s < 80%% of %.1f Mb/s", got/1e6, ceiling/1e6)
	}
}

// TestSonetBERSweepSurvives is the fault-sweep regression: whatever a given
// bit-error rate does to frames, headers, and payloads, the run completes
// without a panic, every delivered SDU is intact, and the damage shows up in
// counted stats rather than vanishing.
func TestSonetBERSweepSurvives(t *testing.T) {
	// BitErrProb is per-frame; an STS-3c frame carries 2430 bytes = 19440
	// bits, so a line BER of b is roughly 19440*b per frame.
	const frameBits = 19440
	for i, ber := range []float64{1e-7, 1e-6, 1e-5, 5e-5} {
		p := frameBits * ber
		if p > 1 {
			p = 1
		}
		k := sim.NewKernel()
		mk := func(name string) *nic.Interface {
			cfg := nic.DefaultConfig(name)
			cfg.RxFifoDepth = 128
			iface, _ := nic.New(k, cfg, host.New(k, host.DefaultConfig()), bus.New(k, bus.DefaultConfig()), atm.NewPool(0))
			return iface
		}
		a, b := mk("a"), mk("b")
		link, err := Connect(k, Config{Rate: sonet.STS3c, Delay: 10_000, BitErrProb: p, Seed: uint64(100 + i)}, a, b)
		if err != nil {
			t.Fatal(err)
		}
		payload := pkt(9180)
		var delivered int
		b.OnReceive(func(d nic.Delivered) {
			delivered++
			if !bytes.Equal(d.SDU, payload) {
				t.Fatalf("ber %g: corrupted SDU delivered", ber)
			}
		})
		a.OpenVC(vc())
		b.OpenVC(vc())
		const n = 15
		for j := 0; j < n; j++ {
			a.Send(vc(), payload, nil)
		}
		k.Run()
		if delivered > n {
			t.Fatalf("ber %g: delivered %d of %d sent", ber, delivered, n)
		}
		// Whatever was not delivered left a trace in some counter.
		st := link.AtoB.Stats()
		rx := b.Stats().Rx
		damage := st.FrameErrors + st.HeaderDiscards + st.Deframer.B1Errors +
			st.Deframer.LOSFrames + st.Delineation.HeaderDropped +
			uint64(st.Delineation.HeaderCorrected) + uint64(st.Delineation.SyncLosses) +
			rx.AALErrors + rx.BadOAM
		if delivered < n && damage == 0 {
			t.Fatalf("ber %g: %d frames lost with no counted damage: link %+v rx %+v",
				ber, n-delivered, st, rx)
		}
	}
}

// TestSonetDamagedFrameCounted is the direct regression for the receive
// path: a frame the deframer rejects outright must be a counted loss, and a
// cell whose header is damaged beyond correction must be a counted drop —
// neither may crash the run.
func TestSonetDamagedFrameCounted(t *testing.T) {
	r := newRig(t, sonet.STS3c)
	h := r.link.AtoB

	h.frameArrived(make([]byte, 17)) // far too short: PushFrame error
	if st := h.Stats(); st.FrameErrors != 1 {
		t.Fatalf("FrameErrors = %d, want 1", st.FrameErrors)
	}

	// The bring-up idle frame locks delineation and ends partway into an
	// idle cell; finish that cell, so the next byte starts a cell slot.
	r.k.Run()
	if h.del.State() != sonet.Sync {
		t.Fatalf("delineation %v after the bring-up frame, want SYNC", h.del.State())
	}
	sent := int(h.Stats().Frames) * sonet.Geom(sonet.STS3c).PayloadPer
	h.del.Push(make([]byte, atm.CellSize-sent%atm.CellSize))

	// A double-bit header error is beyond the HEC's single-bit correction:
	// the delineator drops the cell, counted, and hands nothing up.
	good := &atm.Cell{Header: atm.Header{Format: atm.UNI, VCI: 33}}
	buf := make([]byte, atm.CellSize)
	if err := good.Encode(buf); err != nil {
		t.Fatal(err)
	}
	buf[0] ^= 0xc0
	before := h.Stats().Delineation
	h.del.Push(buf)
	st := h.Stats()
	if st.Delineation.HeaderDropped != before.HeaderDropped+1 || st.Delineation.Cells != before.Cells {
		t.Fatalf("delineation %+v after the damaged cell, was %+v: want one more drop and no delivery",
			st.Delineation, before)
	}
	if st.HeaderDiscards != 0 {
		t.Fatalf("HeaderDiscards = %d, want 0", st.HeaderDiscards)
	}
	r.k.Run() // nothing pending must misbehave afterwards
	if rx := r.b.Stats().Rx; rx.Cells != 0 {
		t.Fatalf("b received %d cells, want 0", rx.Cells)
	}
}

// TestSonetLinkFailureLOS: cutting one SONET direction is loss of signal at
// the far interface — its fault manager declares LOS, answers with RDI over
// the intact reverse direction, and the alarm soaks out after repair.
func TestSonetLinkFailureLOS(t *testing.T) {
	k := sim.NewKernel()
	mk := func(name string) *nic.Interface {
		cfg := nic.DefaultConfig(name)
		cfg.RxFifoDepth = 128
		cfg.AlarmPeriod = 100 * sim.Microsecond
		cfg.AlarmClearTimeout = 300 * sim.Microsecond
		iface, _ := nic.New(k, cfg, host.New(k, host.DefaultConfig()), bus.New(k, bus.DefaultConfig()), atm.NewPool(0))
		return iface
	}
	a, b := mk("a"), mk("b")
	link, err := Connect(k, Config{Rate: sonet.STS3c, Delay: 10_000, Seed: 5}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	a.OpenVC(vc())
	b.OpenVC(vc())
	var bEvents, aEvents []nic.AlarmEvent
	b.OnAlarm(func(ev nic.AlarmEvent) { bEvents = append(bEvents, ev) })
	a.OnAlarm(func(ev nic.AlarmEvent) { aEvents = append(aEvents, ev) })

	a.Send(vc(), pkt(1000), nil)
	k.Run()

	link.AtoB.Fail()
	if !link.AtoB.line.Down() {
		t.Fatal("Down() = false after Fail")
	}
	k.RunFor(400 * sim.Microsecond)
	link.AtoB.Restore()
	k.Run()

	if len(bEvents) != 2 || bEvents[0].Kind != nic.AlarmLOS || !bEvents[0].Raised || bEvents[1].Raised {
		t.Fatalf("b alarm events %v, want LOS declare+clear", bEvents)
	}
	// b's RDI crossed the intact B->A direction and declared at a.
	if a.FMStats().RDIRx == 0 {
		t.Fatal("no RDI reached a over the reverse SONET direction")
	}
	if len(aEvents) < 2 || aEvents[0].Kind != nic.AlarmRDI || !aEvents[0].Raised {
		t.Fatalf("a alarm events %v, want RDI declare then clear", aEvents)
	}
	if last := aEvents[len(aEvents)-1]; last.Raised {
		t.Fatalf("a's RDI alarm never cleared: %v", aEvents)
	}
}

// efciMarker sits between the transmitting interface's cell clock and the
// SONET framer, setting the EFCI bit on every user cell — a stand-in for a
// congested switch upstream of this fiber. RM and OAM cells pass unmarked,
// as a real switch would leave them.
type efciMarker struct {
	dst    atm.CellConsumer
	marked int
}

func (m *efciMarker) DeliverCell(c *atm.Cell) {
	if c.Header.PT.User() {
		c.Header.PT |= atm.PTUserCongested
		m.marked++
	}
	m.dst.DeliverCell(c)
}

// TestSonetEFCISurvivesFraming closes the ABR loop over the real physical
// layer with every data cell EFCI-marked: the congestion bit must survive
// scrambling, delineation and header decode into the destination's EFCI
// state, the turned-around backward RM cells must carry CI=1 back across
// the reverse SONET direction, and the source's ACR must therefore fall
// below its initial rate. Marked frames must still reassemble intact —
// PT 0b011 remains end-of-frame.
func TestSonetEFCISurvivesFraming(t *testing.T) {
	r := newRig(t, sonet.STS3c)
	r.a.OpenVC(vc())
	r.b.OpenVC(vc())
	const icr = 50_000
	if err := r.a.SetABR(vc(), tm.ABRParams{PCR: 100_000, ICR: icr, Nrm: 32}); err != nil {
		t.Fatal(err)
	}
	m := &efciMarker{dst: r.link.AtoB}
	r.a.AttachSink(m)
	payload := pkt(9180) // 192 cells: several Nrm cadences per SDU
	for i := 0; i < 3; i++ {
		if err := r.a.Send(vc(), payload, nil); err != nil {
			t.Fatal(err)
		}
	}
	r.k.Run()
	if len(r.got) != 3 {
		t.Fatalf("delivered %d of 3 EFCI-marked frames", len(r.got))
	}
	for i, sdu := range r.got {
		if !bytes.Equal(sdu, payload) {
			t.Fatalf("frame %d corrupted by EFCI marking", i)
		}
	}
	if m.marked == 0 {
		t.Fatal("marker saw no user cells")
	}
	acr, ok := r.a.ACR(vc())
	if !ok {
		t.Fatal("ACR lost its ABR state")
	}
	// Every backward RM cell carried CI (the destination's EFCI state was
	// pinned by the marked data cells), so the source only ever decreased.
	if acr >= icr {
		t.Fatalf("ACR = %.0f, want < ICR %d: CI feedback never arrived, so the EFCI bit died in framing", acr, icr)
	}
	if acr <= 0 {
		t.Fatalf("ACR = %.0f fell through the MCR floor", acr)
	}
}

// TestCutFiberWireSpans cuts a→b for 1 ms in the middle of a transfer and
// restores it. Each data cell framed while the fiber is down records one
// link_loss drop on the wire stage, and every cell that arrives, before the
// cut or after it, records a wire span of at most the fiber delay plus two
// frame periods: a cell lost in the cut leaves nothing behind for a later
// cell of its VC to be timed against.
func TestCutFiberWireSpans(t *testing.T) {
	const delay = 10_000 // newTracedRig's fiber
	r := newTracedRig(t, sonet.STS3c, 1<<16)
	r.a.OpenVC(vc())
	r.b.OpenVC(vc())
	for i := 0; i < 6; i++ {
		if err := r.a.Send(vc(), pkt(9180), nil); err != nil {
			t.Fatal(err)
		}
	}
	ab := r.link.AtoB
	var framedAtCut, framedAtRestore uint64
	r.k.At(2*sim.Millisecond, func() { framedAtCut = ab.Stats().DataCells; ab.Fail() })
	r.k.At(3*sim.Millisecond, func() { framedAtRestore = ab.Stats().DataCells; ab.Restore() })
	r.k.Run()

	lost := framedAtRestore - framedAtCut
	if lost == 0 || framedAtRestore == ab.Stats().DataCells {
		t.Fatalf("framed %d cells during the cut and %d after: the cut is not mid-transfer",
			lost, ab.Stats().DataCells-framedAtRestore)
	}
	var drops uint64
	var spans, after int
	for _, ev := range r.rec.Events() {
		if node, stage := r.rec.StageName(ev.Stage); node != "link.a" || stage != "wire" {
			continue
		}
		switch ev.Kind {
		case trace.KindDrop:
			if ev.Cause != metrics.DropLink || ev.At < 2*sim.Millisecond || ev.At >= 3*sim.Millisecond {
				t.Errorf("wire drop %+v, want link_loss during the cut", ev)
			}
			drops++
		case trace.KindSpan:
			spans++
			if ev.Start >= 3*sim.Millisecond {
				after++
			}
			if d := ev.At - ev.Start; d <= 0 || d > delay+2*sonet.FramePeriodNs {
				t.Errorf("wire span %v..%v lasts %v, want (0, %v]", ev.Start, ev.At, d, delay+2*sonet.FramePeriodNs)
			}
		}
	}
	if drops != lost {
		t.Errorf("wire stage recorded %d drops, want %d: one per data cell framed on the cut fiber", drops, lost)
	}
	if after == 0 || spans == 0 {
		t.Fatalf("%d wire spans, %d of them after the restore", spans, after)
	}
	if len(r.got) == 0 {
		t.Fatal("no SDU survived the cut")
	}
}
