package nic

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/aal"
	"repro/internal/atm"
	"repro/internal/bufmgr"
	"repro/internal/bus"
	"repro/internal/host"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/units"
)

// injectRig drives a receiver directly with synthetic line-rate cells —
// no sender in the way, so the receive path is the only variable.
type injectRig struct {
	k     *sim.Kernel
	iface *Interface
	segs  map[atm.VC]aal.Segmenter
}

func newInjectRig(t *testing.T, mod func(cfg *Config)) *injectRig {
	t.Helper()
	k := sim.NewKernel()
	cfg := DefaultConfig("rx")
	if mod != nil {
		mod(&cfg)
	}
	iface, err := New(k, cfg, host.New(k, host.DefaultConfig()), bus.New(k, bus.DefaultConfig()), atm.NewPool(0))
	if err != nil {
		t.Fatal(err)
	}
	return &injectRig{k: k, iface: iface, segs: map[atm.VC]aal.Segmenter{}}
}

// injectFrame schedules all cells of one AAL5 frame for vc, one per cell
// slot starting at start.
func (r *injectRig) injectFrame(vc atm.VC, sdu []byte, start sim.Time, cellTime sim.Duration) sim.Time {
	seg := r.segs[vc]
	if seg == nil {
		seg = aal.NewSegmenter(aal.AAL5)
		r.segs[vc] = seg
	}
	// Segment now; schedule deliveries.
	cells, err := seg.Begin(sdu)
	if err != nil {
		panic(err)
	}
	at := start
	for i := 0; i < cells; i++ {
		cell := r.iface.Pool().Get()
		pt, _, err := seg.Next(&cell.Payload)
		if err != nil {
			panic(err)
		}
		cell.Header = atm.Header{Format: atm.UNI, VPI: vc.VPI, VCI: vc.VCI, PT: pt}
		r.k.At(at, func() { r.iface.DeliverCell(cell) })
		at += cellTime
	}
	return at
}

func TestMultiEngineScalesAcrossVCs(t *testing.T) {
	// At STS-12c one 25 MHz engine cannot keep up with line-rate cells.
	// With 4 VCs interleaved cell-by-cell and 4 engines, each engine sees
	// a quarter of the rate and keeps up.
	run := func(engines int) (pkts uint64, drops uint64) {
		r := newInjectRig(t, func(cfg *Config) {
			cfg.PayloadRate = units.STS12cPayload
			cfg.RxEngines = engines
		})
		ct := units.CellTime(units.STS12cPayload)
		vcs := []atm.VC{{VCI: 11}, {VCI: 12}, {VCI: 13}, {VCI: 14}}
		for _, vc := range vcs {
			r.iface.OpenVC(vc)
		}
		got := 0
		r.iface.OnReceive(func(d Delivered) { got++ })
		// Interleave: each VC sends cells in slots i, i+4, i+8... at full
		// aggregate line rate.
		sdu := pkt(2000) // 42 cells each
		for round := 0; round < 20; round++ {
			base := sim.Time(round*42*4) * sim.Time(ct)
			for i, vc := range vcs {
				r.injectFrame(vc, sdu, base+sim.Time(i)*sim.Time(ct), 4*ct)
			}
		}
		r.k.Run()
		st := r.iface.Stats()
		return st.Rx.Packets, st.Rx.FifoDrops
	}
	onePkts, oneDrops := run(1)
	fourPkts, fourDrops := run(4)
	if oneDrops == 0 {
		t.Fatalf("single engine survived STS-12c aggregate (%d pkts) — no bottleneck to scale away", onePkts)
	}
	if fourDrops != 0 {
		t.Fatalf("4 engines still dropped %d cells", fourDrops)
	}
	if fourPkts != 80 {
		t.Fatalf("4 engines delivered %d of 80", fourPkts)
	}
	if fourPkts <= onePkts {
		t.Fatalf("no scaling: 1 engine %d pkts, 4 engines %d", onePkts, fourPkts)
	}
}

func TestMultiEngineSingleVCGainsNothing(t *testing.T) {
	// All cells of one VC hash to one engine: adding engines must not
	// change single-VC behaviour (ordering guarantee has a price).
	run := func(engines int) uint64 {
		r := newInjectRig(t, func(cfg *Config) {
			cfg.PayloadRate = units.STS12cPayload
			cfg.RxEngines = engines
		})
		ct := units.CellTime(units.STS12cPayload)
		vc := atm.VC{VCI: 9}
		r.iface.OpenVC(vc)
		end := sim.Time(0)
		for i := 0; i < 10; i++ {
			end = r.injectFrame(vc, pkt(9180), end, ct)
		}
		r.k.Run()
		return r.iface.Stats().Rx.FifoDrops
	}
	if one, eight := run(1), run(8); one != eight {
		t.Fatalf("single-VC drops changed with engines: %d vs %d", one, eight)
	}
}

func TestMultiEnginePreservesPerVCOrderAndIntegrity(t *testing.T) {
	r := newInjectRig(t, func(cfg *Config) { cfg.RxEngines = 3 })
	ct := units.CellTime(units.STS3cPayload)
	vcs := []atm.VC{{VCI: 21}, {VCI: 22}, {VCI: 23}}
	for _, vc := range vcs {
		r.iface.OpenVC(vc)
	}
	type rcv struct {
		vc  atm.VC
		sdu []byte
	}
	var got []rcv
	r.iface.OnReceive(func(d Delivered) { got = append(got, rcv{d.VC, bytes.Clone(d.SDU)}) })
	// Each VC sends 5 distinct frames, interleaved in time.
	for i := 0; i < 5; i++ {
		for j, vc := range vcs {
			start := sim.Time(i*3+j) * 50_000
			r.injectFrame(vc, pkt(700+i*31+j*7), start, 3*ct)
		}
	}
	r.k.Run()
	if len(got) != 15 {
		t.Fatalf("delivered %d of 15", len(got))
	}
	// Per-VC, frames arrive in send order with intact bytes.
	idx := map[atm.VC]int{}
	for _, g := range got {
		j := 0
		for jj, vc := range vcs {
			if vc == g.vc {
				j = jj
			}
		}
		i := idx[g.vc]
		want := pkt(700 + i*31 + j*7)
		if !bytes.Equal(g.sdu, want) {
			t.Fatalf("VC %v frame %d corrupted or reordered", g.vc, i)
		}
		idx[g.vc]++
	}
}

func TestRxEnginesValidation(t *testing.T) {
	k := sim.NewKernel()
	h := host.New(k, host.DefaultConfig())
	b := bus.New(k, bus.DefaultConfig())
	cfg := DefaultConfig("x")
	cfg.RxEngines = -1
	if _, err := New(k, cfg, h, b, atm.NewPool(0)); err == nil {
		t.Fatal("negative RxEngines accepted")
	}
	cfg.RxEngines = 65
	if _, err := New(k, cfg, h, b, atm.NewPool(0)); err == nil {
		t.Fatal("RxEngines 65 accepted")
	}
	cfg.RxEngines = 0 // default
	iface, err := New(k, cfg, h, b, atm.NewPool(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(iface.RxEngines()) != 1 {
		t.Fatalf("default engines = %d", len(iface.RxEngines()))
	}
}

func TestOAMLoopbackAnsweredByFirmware(t *testing.T) {
	// a pings b's endpoint; b's receive firmware reflects the cell with
	// the indication cleared and no host involvement; a's handler sees
	// the correlation tag come home.
	r := newRig(t, nil)
	vc := atm.VC{VCI: 77}
	r.a.OpenVC(vc)
	r.b.OpenVC(vc)
	// newRig wires only a->b; add the reverse path for the reply.
	back := phy.NewCellLink(r.k, 10_000, 2, r.a, atm.NewPool(0))
	r.b.AttachSink(atm.SinkFunc(back.Send))

	var gotVC atm.VC
	var gotCorr uint32
	r.a.OnLoopbackReply(func(vc atm.VC, corr uint32) { gotVC, gotCorr = vc, corr })
	hostIrqsBefore := r.hostB.Interrupts()
	if err := r.a.SendLoopback(vc, 0xc0ffee); err != nil {
		t.Fatal(err)
	}
	r.k.Run()
	if gotCorr != 0xc0ffee || gotVC != vc {
		t.Fatalf("reply: vc=%v corr=%#x", gotVC, gotCorr)
	}
	if r.hostB.Interrupts() != hostIrqsBefore {
		t.Fatal("loopback involved the remote host CPU")
	}
	if r.b.Stats().Rx.OAMCells != 1 {
		t.Fatalf("b OAM cells = %d", r.b.Stats().Rx.OAMCells)
	}
}

func TestOAMLoopbackUnansweredWithoutResponder(t *testing.T) {
	// Loopback into the void (no reverse path): no reply, no crash, and
	// user traffic is unaffected.
	r := newRig(t, nil)
	vc := atm.VC{VCI: 78}
	r.a.OpenVC(vc)
	r.b.OpenVC(vc)
	replied := false
	r.a.OnLoopbackReply(func(atm.VC, uint32) { replied = true })
	r.a.SendLoopback(vc, 1)
	r.a.Send(vc, pkt(500), nil)
	r.k.Run()
	if replied {
		t.Fatal("reply with no reverse path")
	}
	if len(r.received) != 1 {
		t.Fatal("user traffic disturbed by management cell")
	}
}

// midRig is two AAL3/4 senders, tx1 on MID 5 and tx2 on MID 9, merged
// onto one shared VC into a MIDMux receiver.
type midRig struct {
	k        *sim.Kernel
	tx1, tx2 *Interface
	rx       *Interface
	shared   atm.VC
}

func newMIDRig(t *testing.T) *midRig {
	t.Helper()
	k := sim.NewKernel()
	mkTx := func(name string) *Interface {
		cfg := DefaultConfig(name)
		cfg.AAL = aal.AAL34
		cfg.InterleaveVCs = true
		iface, err := New(k, cfg, host.New(k, host.DefaultConfig()), bus.New(k, bus.DefaultConfig()), atm.NewPool(0))
		if err != nil {
			t.Fatal(err)
		}
		return iface
	}
	cfgRx := DefaultConfig("rx")
	cfgRx.AAL = aal.AAL34
	cfgRx.MIDMux = true
	rx, err := New(k, cfgRx, host.New(k, host.DefaultConfig()), bus.New(k, bus.DefaultConfig()), atm.NewPool(0))
	if err != nil {
		t.Fatal(err)
	}
	shared := atm.VC{VCI: 30}
	tx1, tx2 := mkTx("tx1"), mkTx("tx2")
	for _, iface := range []*Interface{tx1, tx2} {
		iface.OpenVC(shared)
	}
	tx1.SetMID(shared, 5)
	tx2.SetMID(shared, 9)
	rx.OpenVC(shared)

	// Both transmitters feed the same fiber (a multipoint-to-point merge,
	// as an SMDS access line would see).
	link := phy.NewCellLink(k, 5000, 3, rx, atm.NewPool(0))
	tx1.AttachSink(atm.SinkFunc(link.Send))
	tx2.AttachSink(atm.SinkFunc(link.Send))
	return &midRig{k: k, tx1: tx1, tx2: tx2, rx: rx, shared: shared}
}

func TestMIDMuxSharedVC(t *testing.T) {
	// Two senders' frames interleave cell-by-cell on ONE VC (merged via a
	// shared link); the MIDMux receiver demultiplexes them by MID.
	r := newMIDRig(t)
	got := map[uint16][]byte{}
	r.rx.OnReceive(func(d Delivered) { got[d.MID] = bytes.Clone(d.SDU) })

	r.tx1.Send(r.shared, pkt(3000), nil)
	r.tx2.Send(r.shared, pkt(1500), nil)
	r.k.Run()

	if !bytes.Equal(got[5], pkt(3000)) {
		t.Fatal("MID 5 frame corrupted or missing")
	}
	if !bytes.Equal(got[9], pkt(1500)) {
		t.Fatal("MID 9 frame corrupted or missing")
	}
}

func TestMIDMuxStreamsOwnSRAM(t *testing.T) {
	// A short MID 9 frame starts 1.5 ms into a long MID 5 frame on the
	// shared VC and completes first. Each stream pins its own SRAM, so
	// MID 9's completion frees only MID 9's pages and MID 5 still holds
	// every page its buffered cells fill.
	r := newMIDRig(t)
	sram := func(cells int) int { return pagedSRAM(r.rx.cfg.maxFrameCells(), cells) }
	got := map[uint16][]byte{}
	r.rx.OnReceive(func(d Delivered) {
		got[d.MID] = bytes.Clone(d.SDU)
		if d.MID != 9 {
			return
		}
		// Every cell the VC has taken so far is MID 5's, bar MID 9's.
		mid5 := int(r.rx.Metrics().VC(r.shared.VPI, r.shared.VCI).CellsIn) - d.Cells
		if used, want := r.rx.SRAMUsed(), sram(mid5); used != want {
			t.Errorf("SRAM at MID 9 delivery = %d B, want %d B for MID 5's %d cells", used, want, mid5)
		}
	})
	r.tx1.Send(r.shared, pkt(30000), nil)
	r.k.At(sim.Time(1500*sim.Microsecond), func() { r.tx2.Send(r.shared, pkt(1500), nil) })
	r.k.Run()

	if !bytes.Equal(got[5], pkt(30000)) || !bytes.Equal(got[9], pkt(1500)) {
		t.Fatal("a MID frame was corrupted or lost")
	}
	// MID 5 alone pins its full frame at its end; nothing stays pinned.
	if peak, want := r.rx.Stats().SRAMPeak, sram(aal.CellsForSDU34(30000)); peak < want {
		t.Errorf("SRAM peak %d B, below the %d B the 30000-B frame pins alone", peak, want)
	}
	if used := r.rx.SRAMUsed(); used != 0 {
		t.Errorf("%d B still pinned after both frames", used)
	}
}

// pagedSRAM returns the adapter SRAM that a frame of up to maxCells cells
// pins once it holds cells.
func pagedSRAM(maxCells, cells int) int {
	a := bufmgr.NewAllocator(bufmgr.Paged, 0)
	f, _ := a.NewFrame(maxCells)
	for i := 0; i < cells; i++ {
		f.Append()
	}
	return a.Used()
}

// injectMID schedules the first n cells (all when n < 0) of sdu's AAL3/4
// segmentation under MID mid on vc, one every gap from start.
func (r *injectRig) injectMID(vc atm.VC, mid uint16, sdu []byte, n int, start sim.Time, gap sim.Duration) {
	seg := aal.NewSegmenter34()
	seg.MID = mid
	cells, err := seg.Begin(sdu)
	if err != nil {
		panic(err)
	}
	if n < 0 {
		n = cells
	}
	for i := 0; i < n; i++ {
		cell := r.iface.Pool().Get()
		pt, _, err := seg.Next(&cell.Payload)
		if err != nil {
			panic(err)
		}
		cell.Header = atm.Header{Format: atm.UNI, VPI: vc.VPI, VCI: vc.VCI, PT: pt}
		r.k.At(start+sim.Time(i)*sim.Time(gap), func() { r.iface.DeliverCell(cell) })
	}
}

func newMIDInjectRig(t *testing.T, mod func(cfg *Config)) *injectRig {
	return newInjectRig(t, func(cfg *Config) {
		cfg.AAL = aal.AAL34
		cfg.MIDMux = true
		mod(cfg)
	})
}

func TestMIDMuxStaleStreamFreesOnlyItsSRAM(t *testing.T) {
	// MID 5 loses its end of message after 100 cells while MID 9 keeps
	// arriving. The reassembly GC reclaims MID 5's pages and leaves MID
	// 9's, which then completes normally.
	r := newMIDInjectRig(t, func(cfg *Config) { cfg.ReassemblyTimeout = 200 * sim.Microsecond })
	vc := atm.VC{VCI: 30}
	r.iface.OpenVC(vc)
	var got []Delivered
	r.iface.OnReceive(func(d Delivered) {
		d.SDU = bytes.Clone(d.SDU)
		got = append(got, d)
	})
	ct := units.CellTime(units.STS3cPayload)
	r.injectMID(vc, 5, pkt(30000), 100, 0, ct)
	r.injectMID(vc, 9, pkt(3000), -1, sim.Time(ct)/2, 20*sim.Microsecond)
	r.k.At(sim.Time(700*sim.Microsecond), func() {
		if st := r.iface.Stats(); st.Rx.Stale != 1 {
			t.Fatalf("stale frames at 700 us = %d, want MID 5's", st.Rx.Stale)
		}
		mid9 := int(r.iface.Metrics().VC(vc.VPI, vc.VCI).CellsIn) - 100
		if used, want := r.iface.SRAMUsed(), pagedSRAM(r.iface.cfg.maxFrameCells(), mid9); used != want {
			t.Errorf("SRAM after MID 5 aged out = %d B, want %d B for MID 9's %d cells", used, want, mid9)
		}
	})
	r.k.Run()
	if len(got) != 1 || got[0].MID != 9 || !bytes.Equal(got[0].SDU, pkt(3000)) {
		t.Fatalf("delivered %d frames, want MID 9's alone", len(got))
	}
	if used := r.iface.SRAMUsed(); used != 0 {
		t.Errorf("%d B still pinned", used)
	}
}

// TestMIDMuxReclaimOrderDeterministic strands three MID streams on one VC
// at once, so one reassembly sweep reclaims all three slots, each release
// closing an rx.reasm span. The recorded trace must be the same on every
// run: the slots are released in MID order, not in map order.
func TestMIDMuxReclaimOrderDeterministic(t *testing.T) {
	run := func() []trace.Event {
		r := newMIDInjectRig(t, func(cfg *Config) { cfg.ReassemblyTimeout = 200 * sim.Microsecond })
		rec := trace.NewRecorder(r.k, 4096)
		r.iface.SetRecorder(rec)
		vc := atm.VC{VCI: 30}
		r.iface.OpenVC(vc)
		ct := units.CellTime(units.STS3cPayload)
		for i, mid := range []uint16{7, 3, 11} {
			r.injectMID(vc, mid, pkt(3000), 10, sim.Time(i)*sim.Time(ct), 3*ct)
		}
		r.k.Run()
		if st := r.iface.Stats(); st.Rx.Stale != 3 {
			t.Fatalf("stale frames = %d, want all three MIDs", st.Rx.Stale)
		}
		return rec.Events()
	}
	want := run()
	for i := 1; i < 20; i++ {
		if got := run(); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d recorded a different trace:\n%v\nfirst run:\n%v", i, got, want)
		}
	}
}

func TestMIDMuxSRAMDropAbandonsOnlyItsStream(t *testing.T) {
	// The SRAM holds one page beyond two frames' overhead. MID 5's
	// one-page frame fits; MID 9's interleaved frame cannot get a page, so
	// MID 9 alone is dropped for memory and MID 5 completes.
	maxCells := aal.CellsForSDU34(aal.MaxSDU)
	sram := pagedSRAM(maxCells, 1) + bufmgr.FrameOverheadBytes(bufmgr.Paged, maxCells)
	r := newMIDInjectRig(t, func(cfg *Config) { cfg.AdapterSRAM = sram })
	vc := atm.VC{VCI: 30}
	r.iface.OpenVC(vc)
	var got []Delivered
	r.iface.OnReceive(func(d Delivered) {
		d.SDU = bytes.Clone(d.SDU)
		got = append(got, d)
	})
	ct := units.CellTime(units.STS3cPayload)
	r.injectMID(vc, 5, pkt(1000), -1, 0, 2*ct) // 23 cells: one page
	r.injectMID(vc, 9, pkt(1000), -1, sim.Time(ct), 2*ct)
	r.k.Run()
	if len(got) != 1 || got[0].MID != 5 || !bytes.Equal(got[0].SDU, pkt(1000)) {
		t.Fatalf("delivered %d frames, want MID 5's alone", len(got))
	}
	st := r.iface.Stats()
	if st.Rx.SRAMDrops == 0 || st.SRAMPeak > sram {
		t.Fatalf("SRAM drops %d, peak %d of %d B", st.Rx.SRAMDrops, st.SRAMPeak, sram)
	}
	if used := r.iface.SRAMUsed(); used != 0 {
		t.Errorf("%d B still pinned", used)
	}
}

func TestMIDMuxValidation(t *testing.T) {
	k := sim.NewKernel()
	h := host.New(k, host.DefaultConfig())
	b := bus.New(k, bus.DefaultConfig())
	cfg := DefaultConfig("x")
	cfg.MIDMux = true // AAL5: invalid
	if _, err := New(k, cfg, h, b, atm.NewPool(0)); err == nil {
		t.Fatal("MIDMux with AAL5 accepted")
	}
	cfg.AAL = aal.AAL34
	iface, err := New(k, cfg, h, b, atm.NewPool(0))
	if err != nil {
		t.Fatal(err)
	}
	vc := atm.VC{VCI: 4}
	iface.OpenVC(vc)
	if err := iface.SetMID(vc, 0x400); err == nil {
		t.Fatal("11-bit MID accepted")
	}
	if err := iface.SetMID(atm.VC{VCI: 99}, 1); err == nil {
		t.Fatal("SetMID on unopened VC accepted")
	}
	if err := iface.SetMID(vc, 0x3ff); err != nil {
		t.Fatal(err)
	}
}

func TestSetMIDRequiresAAL34(t *testing.T) {
	k := sim.NewKernel()
	iface, _ := New(k, DefaultConfig("x"), host.New(k, host.DefaultConfig()), bus.New(k, bus.DefaultConfig()), atm.NewPool(0))
	vc := atm.VC{VCI: 4}
	iface.OpenVC(vc)
	if err := iface.SetMID(vc, 1); err == nil {
		t.Fatal("SetMID on AAL5 build accepted")
	}
}

// The interface lends each delivered SDU to the callback. A slice kept past
// its callback is a receive buffer that the next frame of its size class
// reuses. A buffer goes back only when its callback returns, so frames whose
// receive interrupts are outstanding at the same time each arrive intact in
// their own buffer.
func TestDeliveredSDUIsLent(t *testing.T) {
	fill := func(b byte) []byte { return bytes.Repeat([]byte{b}, 1000) }

	t.Run("recycled", func(t *testing.T) {
		r := newRig(t, nil)
		r.a.OpenVC(vc1())
		r.b.OpenVC(vc1())
		var kept [][]byte
		r.b.OnReceive(func(d Delivered) { kept = append(kept, d.SDU) })
		for _, b := range []byte{0x11, 0x22} {
			if err := r.a.Send(vc1(), fill(b), nil); err != nil {
				t.Fatal(err)
			}
			r.k.Run()
		}
		if len(kept) != 2 {
			t.Fatalf("delivered %d frames, want 2", len(kept))
		}
		if !bytes.Equal(kept[0], fill(0x22)) {
			t.Fatal("the first frame's buffer, kept past its callback, does not hold the second frame: it was not reused")
		}
	})

	// overlapped sends one frame of fill(b) per key at once and checks each
	// callback's bytes. Every frame must finish reassembly, taking its
	// receive buffer, before the first callback runs. During a callback
	// the receive pool must not hand out the buffer being lent.
	overlapped := func(t *testing.T, k *sim.Kernel, rx *Interface, key func(Delivered) byte, send func(b byte) error) {
		t.Helper()
		got := 0
		rx.OnReceive(func(d Delivered) {
			if got == 0 && rx.rx.hReassembly.Count() != 2 {
				t.Errorf("%d frames reassembled at the first callback, want both", rx.rx.hReassembly.Count())
			}
			if !bytes.Equal(d.SDU, fill(key(d))) {
				t.Errorf("frame %#x delivered another frame's bytes", key(d))
			}
			if b := rx.rx.bufs.Get(len(d.SDU)); &b[0] == &d.SDU[0] {
				t.Errorf("frame %#x: its buffer was back in the pool during its callback", key(d))
			} else {
				rx.rx.bufs.Put(b)
			}
			got++
		})
		for _, b := range []byte{0x55, 0x99} {
			if err := send(b); err != nil {
				t.Fatal(err)
			}
		}
		k.Run()
		if got != 2 {
			t.Fatalf("delivered %d frames, want 2", got)
		}
	}

	t.Run("two_vcs", func(t *testing.T) {
		r := newRig(t, func(cfg *Config) { cfg.InterleaveVCs = true })
		vcs := map[byte]atm.VC{0x55: {VCI: 55}, 0x99: {VCI: 99}}
		fills := map[atm.VC]byte{}
		for _, b := range []byte{0x55, 0x99} {
			r.a.OpenVC(vcs[b])
			r.b.OpenVC(vcs[b])
			fills[vcs[b]] = b
		}
		overlapped(t, r.k, r.b,
			func(d Delivered) byte { return fills[d.VC] },
			func(b byte) error { return r.a.Send(vcs[b], fill(b), nil) })
	})

	t.Run("mid_mux", func(t *testing.T) {
		r := newMIDRig(t)
		tx := map[byte]*Interface{0x55: r.tx1, 0x99: r.tx2}
		fills := map[uint16]byte{5: 0x55, 9: 0x99} // tx1 sends on MID 5, tx2 on MID 9
		overlapped(t, r.k, r.rx,
			func(d Delivered) byte { return fills[d.MID] },
			func(b byte) error { return tx[b].Send(r.shared, fill(b), nil) })
	})
}
