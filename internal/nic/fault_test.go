package nic

import (
	"bytes"
	"testing"

	"repro/internal/aal"
	"repro/internal/atm"
	"repro/internal/metrics"
	"repro/internal/oam"
	"repro/internal/sim"
	"repro/internal/units"
)

// faultCfg shortens the alarm timers so tests run in microseconds of
// simulated time rather than the production milliseconds.
func faultCfg(cfg *Config) {
	cfg.AlarmPeriod = 100 * sim.Microsecond
	cfg.AlarmClearTimeout = 300 * sim.Microsecond
}

func TestAISDeclaresOnceAndClears(t *testing.T) {
	r := newRig(t, faultCfg)
	if err := r.b.OpenVC(vc1()); err != nil {
		t.Fatal(err)
	}
	var events []AlarmEvent
	r.b.OnAlarm(func(ev AlarmEvent) { events = append(events, ev) })
	rdiOut := 0
	r.b.AttachSink(atm.SinkFunc(func(c *atm.Cell) {
		if _, fn, ok := oam.Classify(&c.Payload); ok && fn == oam.FuncRDI {
			rdiOut++
		}
		r.b.Pool().Put(c)
	}))

	// A burst of AIS indications: one declare, refreshed soak, one clear.
	for i := 0; i < 3; i++ {
		at := sim.Time(i) * 50_000
		r.k.At(at, func() {
			r.b.DeliverCell(oam.NewAIS(vc1(), oam.LocationID("sw")))
		})
	}
	r.k.Run()

	if len(events) != 2 {
		t.Fatalf("alarm events %v, want exactly declare+clear", events)
	}
	if events[0].Kind != AlarmAIS || !events[0].Raised || events[0].VC != vc1() {
		t.Fatalf("first event %v, want AIS raised", events[0])
	}
	if events[1].Kind != AlarmAIS || events[1].Raised {
		t.Fatalf("second event %v, want AIS cleared", events[1])
	}
	// The clear soaks from the LAST indication (t=100µs), not the first.
	if events[1].At < 100_000+300_000 {
		t.Fatalf("cleared at %v, before the refreshed soak expired", events[1].At)
	}
	fs := r.b.FMStats()
	if fs.AISRx != 3 || fs.Events != 2 {
		t.Fatalf("FMStats %+v, want 3 AIS rx / 2 events", fs)
	}
	// While the defect stood (~400µs at a 100µs period) RDI flowed upstream.
	if rdiOut == 0 || fs.RDITx != uint64(rdiOut) {
		t.Fatalf("RDI upstream: wire saw %d, stats say %d, want >0 and equal", rdiOut, fs.RDITx)
	}
}

func TestRDIReceivedIsTerminal(t *testing.T) {
	r := newRig(t, faultCfg)
	if err := r.b.OpenVC(vc1()); err != nil {
		t.Fatal(err)
	}
	var events []AlarmEvent
	r.b.OnAlarm(func(ev AlarmEvent) { events = append(events, ev) })
	r.b.DeliverCell(oam.NewRDI(vc1(), oam.LocationID("far")))
	r.k.Run()

	if len(events) != 2 || events[0].Kind != AlarmRDI || !events[0].Raised || events[1].Raised {
		t.Fatalf("alarm events %v, want RDI declare+clear", events)
	}
	fs := r.b.FMStats()
	if fs.RDIRx != 1 {
		t.Fatalf("RDIRx = %d, want 1", fs.RDIRx)
	}
	// RDI is the terminal indication: receiving it must not generate more.
	if fs.RDITx != 0 {
		t.Fatalf("RDITx = %d, want 0 (no RDI in response to RDI)", fs.RDITx)
	}
}

func TestDamagedOAMCountedNotCrashed(t *testing.T) {
	r := newRig(t, faultCfg)
	if err := r.b.OpenVC(vc1()); err != nil {
		t.Fatal(err)
	}
	var events []AlarmEvent
	r.b.OnAlarm(func(ev AlarmEvent) { events = append(events, ev) })

	c := oam.NewAIS(vc1(), oam.LocationID("x"))
	c.Payload[5] ^= 0xff // break the CRC-10
	r.b.DeliverCell(c)
	r.k.Run()

	if got := r.b.Stats().Rx.BadOAM; got != 1 {
		t.Fatalf("BadOAM = %d, want 1", got)
	}
	if len(events) != 0 {
		t.Fatalf("damaged OAM raised alarms: %v", events)
	}
	if fs := r.b.FMStats(); fs.AISRx != 0 {
		t.Fatalf("damaged AIS counted as received: %+v", fs)
	}
}

func TestLOSRaisesLinkAlarmAndRDI(t *testing.T) {
	r := newRig(t, faultCfg)
	if err := r.b.OpenVC(vc1()); err != nil {
		t.Fatal(err)
	}
	var events []AlarmEvent
	r.b.OnAlarm(func(ev AlarmEvent) { events = append(events, ev) })
	rdiOut := 0
	r.b.AttachSink(atm.SinkFunc(func(c *atm.Cell) {
		if _, fn, ok := oam.Classify(&c.Payload); ok && fn == oam.FuncRDI {
			rdiOut++
		}
		r.b.Pool().Put(c)
	}))

	r.b.SignalChange(false)
	r.k.RunUntil(250_000)
	r.b.SignalChange(true)
	r.k.Run()

	if len(events) != 2 {
		t.Fatalf("alarm events %v, want LOS declare+clear", events)
	}
	if events[0].Kind != AlarmLOS || !events[0].Raised || events[0].VC != (atm.VC{}) {
		t.Fatalf("first event %v, want link-scope LOS raised", events[0])
	}
	if events[1].Kind != AlarmLOS || events[1].Raised {
		t.Fatalf("second event %v, want LOS cleared", events[1])
	}
	// 250 µs dark at a 100 µs period: RDI flowed on the open VC.
	if rdiOut < 2 {
		t.Fatalf("only %d RDI cells during a 250µs outage", rdiOut)
	}
}

// TestReassemblyGCReclaimsAfterLinkCut is the leak regression: a fiber cut
// mid-frame strands a partial reassembly whose EOM will never arrive; the
// staleness GC must hand its adapter buffer back.
func TestReassemblyGCReclaimsAfterLinkCut(t *testing.T) {
	r := newRig(t, func(cfg *Config) {
		faultCfg(cfg)
		cfg.ReassemblyTimeout = 200 * sim.Microsecond
	})
	if err := r.a.OpenVC(vc1()); err != nil {
		t.Fatal(err)
	}
	if err := r.b.OpenVC(vc1()); err != nil {
		t.Fatal(err)
	}
	if err := r.a.Send(vc1(), pkt(9180), nil); err != nil {
		t.Fatal(err)
	}
	// Cut mid-frame: host DMA and segmentation put the first cell on the
	// wire around t=250µs and the 192-cell frame takes ~540µs to clock
	// out, so t=400µs severs it partway through. Repair only after the
	// transmitter has burned the rest of the frame into the dead fiber
	// and the GC deadline has long passed.
	r.k.At(400_000, r.link.Fail)
	r.k.RunUntil(1_500_000)
	r.link.Restore()
	r.k.Run()

	if len(r.received) != 0 {
		t.Fatalf("severed frame delivered (%d packets)", len(r.received))
	}
	st := r.b.Stats()
	if st.Rx.Stale == 0 {
		t.Fatal("stale partial frame never reclaimed")
	}
	if used := r.b.SRAMUsed(); used != 0 {
		t.Fatalf("adapter SRAM still pinned: %d bytes", used)
	}
	if r.link.Stats().DroppedDown == 0 {
		t.Fatal("no cells counted against the dead fiber")
	}

	// The repaired link carries the next frame normally.
	if err := r.a.Send(vc1(), pkt(1000), nil); err != nil {
		t.Fatal(err)
	}
	r.k.Run()
	if len(r.received) != 1 || len(r.received[0].SDU) != 1000 {
		t.Fatalf("post-repair delivery failed (%d packets)", len(r.received))
	}
	if used := r.b.SRAMUsed(); used != 0 {
		t.Fatalf("SRAM pinned after clean delivery: %d bytes", used)
	}
}

// TestMgmtTxFullCounted: a management cell bounced by a full TX FIFO lands
// in the drop taxonomy instead of vanishing, and the FIFO takes it back to
// the interface's pool.
func TestMgmtTxFullCounted(t *testing.T) {
	reg := metrics.NewRegistry()
	r := newRig(t, func(cfg *Config) {
		cfg.Metrics = reg
		cfg.TxFifoDepth = 4
	})
	_, puts0, _ := r.b.Pool().Stats()
	dropped := 0
	for i := 0; i < 6; i++ { // no kernel running: nothing drains
		c := oam.NewRDI(vc1(), oam.LocationID("b"))
		if !r.b.tx.injectCell(c) {
			dropped++
		}
	}
	if dropped != 2 {
		t.Fatalf("dropped %d of 6 injected into a depth-4 FIFO, want 2", dropped)
	}
	if _, puts, _ := r.b.Pool().Stats(); puts-puts0 != 2 {
		t.Fatalf("pool took back %d cells, want the 2 dropped", puts-puts0)
	}
	row := reg.VC(vc1().VPI, vc1().VCI)
	if got := row.Drops[metrics.DropMgmtTxFull]; got != 2 {
		t.Fatalf("DropMgmtTxFull = %d, want 2", got)
	}
	r.k.Run() // drain the FIFO to the discard output
}

// A management cell can take the last TX FIFO slot while the engine is
// producing a data cell. The data cell then waits for the next free slot:
// the frame still arrives whole, behind the management cell, and the wait
// is no drop.
func TestMgmtCellTakesSlotDuringCellProduction(t *testing.T) {
	r := newRig(t, func(cfg *Config) { cfg.TxFifoDepth = 4 })
	r.a.OpenVC(vc1())
	r.b.OpenVC(vc1())
	payload := pkt(9180)
	if err := r.a.Send(vc1(), payload, nil); err != nil {
		t.Fatal(err)
	}
	// Inject a loopback whenever the engine is producing a cell into a
	// FIFO with one slot free; some of these land before the next cell
	// slot frees room for the engine's cell.
	injected := uint64(0)
	for r.k.Step() {
		tx := r.a.tx
		if tx.busy && tx.curSt != nil && tx.curSt.cellsLeft > 0 && tx.fifo.Len() == tx.cfg.TxFifoDepth-1 {
			if err := r.a.SendLoopback(vc1(), uint32(injected)); err != nil {
				t.Fatal(err)
			}
			injected++
		}
	}
	if injected == 0 {
		t.Fatal("the engine never produced a cell into a FIFO with one slot free")
	}
	if len(r.received) != 1 || !bytes.Equal(r.received[0].SDU, payload) {
		t.Fatalf("frame not delivered whole: %d deliveries", len(r.received))
	}
	sent := uint64(aal.CellsForSDU5(len(payload))) + injected
	if got := r.a.Stats().Tx.Cells; got != sent {
		t.Errorf("tx cells = %d, want %d (the frame plus %d loopbacks)", got, sent, injected)
	}
	// The 4-cell FIFO drains one cell per cell time, so no cell waits longer
	// than 4 cell times from its push. The held cell is timed from the slot
	// that pushed it, not from when the engine produced it.
	delay := r.a.Metrics().Histogram("a.nic.tx.cell_delay")
	if got := delay.Count(); got != sent {
		t.Errorf("tx cell_delay observations = %d, want %d, one per cell sent", got, sent)
	}
	if got, bound := delay.Max(), 4*units.CellTime(r.a.cfg.PayloadRate); got > bound {
		t.Errorf("longest tx FIFO residency %d ns, want at most 4 cell times (%d ns)", got, bound)
	}
	// Every cell arrived, so the TX FIFO lost none: a held cell is late,
	// not dropped.
	if got := r.a.tx.fifo.Ring(0).Stats().Drops; got != 0 {
		t.Errorf("fifo.tx.drops = %d, want 0: every cell was delivered", got)
	}
}
