package nic

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/aal"
	"repro/internal/atm"
	"repro/internal/bufmgr"
	"repro/internal/bufpool"
	"repro/internal/bus"
	"repro/internal/engine"
	"repro/internal/fifo"
	"repro/internal/host"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vclookup"
)

// RxStats is the receive-side snapshot assembled from the telemetry
// registry (see Interface.Stats).
type RxStats struct {
	Cells     uint64 // cells popped from the RX FIFO
	FifoDrops uint64 // cells lost to RX FIFO overflow
	UnknownVC uint64 // cells to unopened VCs
	OAMCells  uint64 // management cells diverted off the fast path
	AALErrors uint64 // frames discarded by AAL checks
	SRAMDrops uint64 // frames abandoned for adapter memory exhaustion
	BadOAM    uint64 // management cells dropped: damaged or unhandled type
	Stale     uint64 // partial frames reclaimed by the reassembly GC
	Packets   uint64 // frames delivered to the host
	Bytes     uint64 // SDU bytes delivered
	MaxFifo   int    // RX FIFO high-water mark (the occupancy gauges' watermark)
}

// Delivered describes one received packet handed to the host.
type Delivered struct {
	VC atm.VC
	// SDU is the host's receive buffer, lent to the delivery callback: it
	// is valid until the callback returns, and then goes back to the
	// interface's receive pool for a later frame. A receiver that needs the
	// bytes later keeps a copy. Every delivery path (core.Packet.Data, the
	// IP stack's handlers, the per-cell host-SAR) follows this rule.
	SDU   []byte
	Cells int
	// MID is the AAL3/4 multiplexing identifier the frame arrived under
	// (0 unless the interface runs with Config.MIDMux).
	MID uint16
	// At is the simulated time the host finished the receive interrupt.
	At sim.Time
}

// rxVC is per-open-VC receive state.
type rxVC struct {
	vc  atm.VC
	ras aal.Reassembler // the VC's one reassembler (MID-demultiplexing with Config.MIDMux)
	rxSlot
	// mids holds one slot per MID stream with Config.MIDMux, so each
	// interleaved frame pins and frees its own SRAM; the embedded slot is
	// then unused. Nil otherwise.
	mids map[uint16]*rxSlot
	vst  *metrics.VCStats // per-connection telemetry row
	eng  int              // the receive engine the VC's cells are steered to
	efci bool             // latest data cell carried the EFCI bit
}

// rxSlot is one frame in reassembly: its adapter-SRAM record and the
// arrival time of its first cell.
type rxSlot struct {
	frame *bufmgr.Frame // nil when no frame in progress
	start sim.Time
}

// slot returns MID mid's slot, making it on the stream's first cell.
func (st *rxVC) slot(mid uint16) *rxSlot {
	sl := st.mids[mid]
	if sl == nil {
		sl = &rxSlot{}
		st.mids[mid] = sl
	}
	return sl
}

// discard returns the slot's SRAM record, if it holds one.
func (sl *rxSlot) discard() {
	if sl.frame != nil {
		sl.frame.Release()
		sl.frame = nil
	}
}

// receiver is the receive half: per-engine RX FIFOs behind a hardware VC
// demux, the demultiplex + reassembly engines, completion DMA and the
// per-packet host interrupt.
//
// With Config.RxEngines > 1 the receive path scales out the way the era's
// delay analyses proposed: a cheap hardware hash on VPI/VCI steers each
// cell to one of N engine-FIFO pairs, so cells of one VC always visit the
// same engine (reassembly stays ordered) while different VCs proceed in
// parallel. A single VC gains nothing — the scaling is across connections,
// exactly as with the real proposal.
type receiver struct {
	k    *sim.Kernel
	cfg  *Config
	engs []*engine.Engine
	dev  *bus.Device
	hst  *host.Host
	pool *atm.Pool

	fifos      []*fifo.Queue
	processing []bool
	lookup     *vclookup.CAM
	alloc      *bufmgr.Allocator
	vcs        []*rxVC // by CAM index; nil where no VC is open
	nextSteer  int     // engine the next opened VC is steered to

	onDeliver func(Delivered)
	onOAM     func(e int, c *atm.Cell) // owns the cell; nil = drop

	// bufs holds the host's receive buffers, each lent to onDeliver and
	// taken back when it returns. It is never instrumented: the
	// "nic.bufpool.*" counters count Send's copies alone.
	bufs bufpool.Pool

	// freeDone holds retired frame-completion records (see desc.go); the
	// list grows on demand and nothing is preallocated.
	freeDone *rxDone

	// Reassembly garbage collection (Config.ReassemblyTimeout > 0): a
	// timer armed while frames are in progress sweeps every VC's
	// reassembler for partial frames abandoned by a lost end-of-message,
	// aborts them and returns their adapter-SRAM buffers to the free list.
	// The timer self-terminates when nothing is mid-frame, so an idle
	// simulation still drains.
	clockFn func() int64 // reassembler staleness clock; nil = GC disabled
	gcFn    func()
	gcArmed bool

	// Per-engine pre-bound callbacks and completion contexts: engine e
	// processes one cell at a time (processing[e] serializes), so a single
	// reusable context per engine replaces the per-cell closures of every
	// routine a cell can run: data, management, AAL error and SRAM drop.
	nextFns  []func()
	cellCtxs []*rxCellCtx

	// Registry instruments (always non-nil; the registry hands out nil-safe
	// no-op instruments only when it is itself nil, which New prevents).
	reg          *metrics.Registry
	mCells       *metrics.Counter
	mFifoDrops   *metrics.Counter
	mUnknownVC   *metrics.Counter
	mOAMCells    *metrics.Counter
	mAALErrors   *metrics.Counter
	mSRAMDrops   *metrics.Counter
	mBadOAM      *metrics.Counter
	mStale       *metrics.Counter
	mPackets     *metrics.Counter
	mBytes       *metrics.Counter
	hCellDelay   *metrics.Histogram // FIFO arrival → per-cell firmware done
	hReassembly  *metrics.Histogram // first cell buffered → frame complete
	hIntrService *metrics.Histogram // interrupt posted → host handler done

	// Flight-recorder spans (nil unless a recorder is attached): reassembly
	// (first cell → frame complete or abandoned) and host delivery. The RX
	// FIFOs record their own.
	spReasm   *trace.StageSpan
	spDeliver *trace.StageSpan
}

func newReceiver(k *sim.Kernel, cfg *Config, engs []*engine.Engine, dev *bus.Device,
	hst *host.Host, pool *atm.Pool, reg *metrics.Registry, prefix string) *receiver {
	n := len(engs)
	r := &receiver{
		k: k, cfg: cfg, engs: engs, dev: dev, hst: hst, pool: pool,
		fifos:      make([]*fifo.Queue, n),
		processing: make([]bool, n),
		lookup:     vclookup.NewCAM(cfg.MaxVCs),
		alloc:      bufmgr.NewAllocator(bufmgr.Paged, cfg.AdapterSRAM),
		vcs:        make([]*rxVC, cfg.MaxVCs),
	}
	for i := range r.fifos {
		r.fifos[i] = fifo.NewQueue(k, 1, cfg.RxFifoDepth, pool, reg, metrics.DropFIFO)
		r.fifos[i].Ring(0).Instrument(reg, scoped(prefix, fmt.Sprintf("fifo.rx%d", i)))
	}
	if cfg.ReassemblyTimeout > 0 {
		r.clockFn = func() int64 { return int64(k.Now()) }
		r.gcFn = r.gcTick
	}
	r.nextFns = make([]func(), n)
	r.cellCtxs = make([]*rxCellCtx, n)
	for e := 0; e < n; e++ {
		e := e
		r.nextFns[e] = func() { r.next(e) }
		ctx := &rxCellCtx{r: r, e: e}
		ctx.fn = ctx.done
		ctx.oamFn = ctx.oam
		ctx.releaseFn = ctx.release
		r.cellCtxs[e] = ctx
	}
	r.reg = reg
	r.mCells = reg.Counter(scoped(prefix, "nic.rx.cells"))
	r.mFifoDrops = reg.Counter(scoped(prefix, "nic.rx.fifo_drops"))
	r.mUnknownVC = reg.Counter(scoped(prefix, "nic.rx.unknown_vc"))
	r.mOAMCells = reg.Counter(scoped(prefix, "nic.rx.oam_cells"))
	r.mAALErrors = reg.Counter(scoped(prefix, "nic.rx.aal_errors"))
	r.mSRAMDrops = reg.Counter(scoped(prefix, "nic.rx.sram_drops"))
	r.mBadOAM = reg.Counter(scoped(prefix, "nic.rx.bad_oam"))
	r.mStale = reg.Counter(scoped(prefix, "nic.rx.stale_frames"))
	r.mPackets = reg.Counter(scoped(prefix, "nic.rx.packets"))
	r.mBytes = reg.Counter(scoped(prefix, "nic.rx.bytes"))
	r.hCellDelay = reg.Histogram(scoped(prefix, "nic.rx.cell_delay"))
	r.hReassembly = reg.Histogram(scoped(prefix, "nic.rx.reassembly_time"))
	r.hIntrService = reg.Histogram(scoped(prefix, "nic.rx.intr_service"))
	return r
}

// snapshot assembles the legacy RxStats view from the registry instruments.
// MaxFifo is filled in by Interface.Stats from the FIFO high-water marks.
func (r *receiver) snapshot() RxStats {
	return RxStats{
		Cells:     r.mCells.Value(),
		FifoDrops: r.mFifoDrops.Value(),
		UnknownVC: r.mUnknownVC.Value(),
		OAMCells:  r.mOAMCells.Value(),
		AALErrors: r.mAALErrors.Value(),
		SRAMDrops: r.mSRAMDrops.Value(),
		BadOAM:    r.mBadOAM.Value(),
		Stale:     r.mStale.Value(),
		Packets:   r.mPackets.Value(),
		Bytes:     r.mBytes.Value(),
	}
}

// engineFor steers a VC to its engine. Steering rides in the VC table the
// hardware demux consults at wire rate: connections are assigned round-robin
// when opened, which balances by construction (the same table-driven scheme
// the multi-processor proposals used). Cells of unopened VCs go to engine 0,
// which will count and drop them.
func (r *receiver) engineFor(vc atm.VC) int {
	if len(r.engs) == 1 {
		return 0
	}
	if idx, _, ok := r.lookup.Lookup(vc); ok {
		return r.vcs[idx].eng
	}
	return 0
}

// open registers a VC for receive.
func (r *receiver) open(vc atm.VC) error {
	idx, err := r.lookup.Insert(vc)
	if err != nil {
		return err
	}
	st := &rxVC{vc: vc, vst: r.reg.VC(vc.VPI, vc.VCI), eng: r.nextSteer % len(r.engs)}
	r.nextSteer++
	if r.cfg.MIDMux {
		st.ras = aal.NewMIDReassembler34(r.cfg.MaxSDU+64, 0)
		st.mids = make(map[uint16]*rxSlot)
	} else {
		st.ras = aal.NewReassembler(r.cfg.AAL, r.cfg.MaxSDU+64)
	}
	if ir, ok := st.ras.(interface{ SetVCStats(*metrics.VCStats) }); ok {
		ir.SetVCStats(st.vst)
	}
	if r.clockFn != nil {
		st.ras.SetClock(r.clockFn)
	}
	r.vcs[idx] = st
	return nil
}

// close tears down a VC, discarding any partial frame.
func (r *receiver) close(vc atm.VC) {
	idx, _, ok := r.lookup.Lookup(vc)
	if !ok {
		return
	}
	st := r.vcs[idx]
	st.ras.Abort()
	st.rxSlot.discard()
	for _, sl := range st.mids {
		sl.discard()
	}
	r.vcs[idx] = nil
	r.lookup.Remove(vc)
}

// deliverCell is the link-side entry point: a cell has arrived from the
// framer. The VC demux runs at wire speed in hardware; the per-engine FIFO
// it lands in is where overflow happens.
func (r *receiver) deliverCell(c *atm.Cell) {
	e := r.engineFor(c.Header.VC())
	if !r.fifos[e].Admit(c, 0) {
		// Hardware overflow: the FIFO dropped the cell. The AAL discovers
		// the damage later; that is the whole E9 story.
		r.mFifoDrops.Inc()
		return
	}
	r.process(e)
}

// process drains engine e's RX FIFO, one firmware activation per cell.
func (r *receiver) process(e int) {
	if r.processing[e] {
		return
	}
	cell, ok := r.fifos[e].Leave()
	if !ok {
		return
	}
	r.processing[e] = true
	r.mCells.Inc()

	// Idle cells are discarded outright; OAM cells leave the fast path
	// for the firmware's management handler.
	if cell.Header.IsIdle() {
		r.pool.Put(cell)
		r.engs[e].Run(rxCellInstr, r.nextFns[e])
		return
	}
	if !cell.Header.PT.User() {
		r.mOAMCells.Inc()
		ctx := r.cellCtxs[e]
		ctx.cell = cell
		r.engs[e].Run(rxCellInstr+rxOAMInstr, ctx.oamFn)
		return
	}

	idx, lookCycles, found := r.lookup.Lookup(cell.Header.VC())
	if !found {
		r.mUnknownVC.Inc()
		r.reg.VC(cell.Header.VPI, cell.Header.VCI).Drop(metrics.DropUnknownVC)
		r.pool.Put(cell)
		r.engs[e].Run(rxCellInstr+lookCycles+rxUnknownVCInstr, r.nextFns[e])
		return
	}
	st := r.vcs[idx]
	st.vst.AddCellIn()
	// The ABR destination turnaround reads this: CI in a turned RM cell
	// reflects whether the network marked the latest data cell EFCI.
	st.efci = cell.Header.PT.Congestion()

	instr := rxCellInstr + lookCycles
	if r.cfg.AAL == aal.AAL34 {
		instr += rxCellAAL34Extra
	}

	// Buffer the cell in adapter SRAM, in its stream's slot. The
	// reassembler holds the payload the host will receive; the SRAM record
	// charges the paged organization's bytes and cycles. (Data effects
	// happen eagerly; their visible timing is gated by the engine-run
	// completions below — the engine is the sole consumer, so this is
	// observationally equivalent and much simpler.)
	sl := &st.rxSlot
	if st.mids != nil {
		sl = st.slot(aal.MIDOf(&cell.Payload))
	}
	if sl.frame == nil {
		f, err := r.alloc.NewFrame(r.cfg.maxFrameCells())
		if err != nil {
			r.dropForMemory(e, st, sl, cell)
			return
		}
		sl.frame = f
		sl.start = r.k.Now()
		r.armGC()
	}
	appendCycles, err := sl.frame.Append()
	if err != nil {
		r.dropForMemory(e, st, sl, cell)
		return
	}
	instr += appendCycles

	ctx := r.cellCtxs[e]
	ctx.st, ctx.sl = st, sl
	ctx.arrived = cell.Stamp
	ctx.res, ctx.aalErr = st.ras.Push(&cell.Payload, cell.Header.PT)
	r.pool.Put(cell)

	r.engs[e].Run(instr, ctx.fn)
}

// rxCellCtx carries one in-flight cell routine's state to its completion.
// One per engine, reused for every cell.
type rxCellCtx struct {
	r         *receiver
	e         int
	fn        func() // bound done method, created once
	oamFn     func() // bound oam method
	releaseFn func() // bound release method
	st        *rxVC
	sl        *rxSlot   // the cell's stream slot
	cell      *atm.Cell // management cell awaiting its handler
	res       *aal.Result
	aalErr    error
	arrived   sim.Time // the cell's RX FIFO entry time
}

// done is the rx_cell routine completion.
func (c *rxCellCtx) done() {
	r, e, st, sl, res, aalErr := c.r, c.e, c.st, c.sl, c.res, c.aalErr
	c.st, c.sl, c.res, c.aalErr = nil, nil, nil, nil
	r.hCellDelay.Observe(r.k.Now() - c.arrived)
	switch {
	case res != nil:
		// A frame completed (possibly also reporting a prior
		// frame's loss, which the AAL already discarded).
		if aalErr != nil {
			r.mAALErrors.Inc()
			st.vst.Drop(metrics.DropAAL)
		}
		r.completeFrame(e, st, sl, res)
	case aalErr != nil:
		r.mAALErrors.Inc()
		st.vst.Drop(metrics.DropAAL)
		c.st, c.sl = st, sl
		r.engs[e].Run(rxErrInstr, c.releaseFn)
	default:
		r.next(e)
	}
}

// oam is the management routine's completion: the cell goes to the
// firmware's management handler.
func (c *rxCellCtx) oam() {
	r, cell := c.r, c.cell
	c.cell = nil
	if r.onOAM != nil {
		r.onOAM(c.e, cell)
	} else {
		r.pool.Put(cell)
	}
	r.next(c.e)
}

// release is the error routine's completion: the abandoned frame's buffer
// goes back to adapter SRAM.
func (c *rxCellCtx) release() {
	st, sl := c.st, c.sl
	c.st, c.sl = nil, nil
	c.r.releaseSlot(st, sl)
	c.r.next(c.e)
}

// dropForMemory abandons the cell's frame when adapter SRAM is exhausted.
// With MIDMux only the cell's own MID stream is abandoned.
func (r *receiver) dropForMemory(e int, st *rxVC, sl *rxSlot, cell *atm.Cell) {
	r.mSRAMDrops.Inc()
	st.vst.Drop(metrics.DropSRAM)
	if st.mids != nil {
		st.ras.(*aal.MIDReassembler34).AbortMID(aal.MIDOf(&cell.Payload))
	} else {
		st.ras.Abort()
	}
	r.pool.Put(cell)
	ctx := r.cellCtxs[e]
	ctx.st, ctx.sl = st, sl
	r.engs[e].Run(rxErrInstr, ctx.releaseFn)
}

// releaseSlot returns an abandoned frame's SRAM record.
func (r *receiver) releaseSlot(st *rxVC, sl *rxSlot) {
	if sl.frame != nil {
		// An abandoned frame still spent its time in reassembly.
		r.spReasm.Span(st.vc, sl.start)
		sl.discard()
	}
}

// badOAM drops a management cell that is damaged or of no handled
// type/function — counted, never silent.
func (r *receiver) badOAM(c *atm.Cell) {
	r.mBadOAM.Inc()
	r.reg.VC(c.Header.VPI, c.Header.VCI).Drop(metrics.DropBadOAM)
	r.pool.Put(c)
}

// armGC schedules the next garbage-collection sweep if one isn't pending.
// Called whenever a frame starts; the sweep re-arms itself while any frame
// remains in progress.
func (r *receiver) armGC() {
	if r.gcFn == nil || r.gcArmed {
		return
	}
	r.gcArmed = true
	r.k.PostAfter(r.cfg.ReassemblyTimeout, r.gcFn)
}

// gcTick sweeps every VC's reassembler for partial frames that have seen no
// cell for ReassemblyTimeout, aborting them and releasing their adapter
// buffers. VCs are visited in lookup-index order so the trace spans the
// releases close come out in a deterministic order.
func (r *receiver) gcTick() {
	r.gcArmed = false
	cutoff := int64(r.k.Now()) - int64(r.cfg.ReassemblyTimeout)
	busy := false
	for _, st := range r.vcs {
		if st == nil {
			continue
		}
		if n := st.ras.ExpireStale(cutoff); n > 0 {
			r.mStale.Add(uint64(n))
			// A slot's buffer is released only when the reap emptied its
			// stream: a buffer backing a frame still completing (rx_eop in
			// flight) must not be pulled out from under the DMA, and a
			// completing MID stream's slot has already left st.mids.
			if st.mids == nil {
				if !st.ras.Busy() {
					r.releaseSlot(st, &st.rxSlot)
				}
			} else {
				// In MID order, as ExpireStale reaps, so the spans the
				// releases close are recorded in the same order every run.
				mux := st.ras.(*aal.MIDReassembler34)
				mids := make([]uint16, 0, len(st.mids))
				for mid := range st.mids {
					mids = append(mids, mid)
				}
				slices.Sort(mids)
				for _, mid := range mids {
					if !mux.Active(mid) {
						r.releaseSlot(st, st.mids[mid])
					}
				}
			}
		}
		if st.ras.Busy() {
			busy = true
		}
	}
	if busy {
		r.gcArmed = true
		r.k.PostAfter(r.cfg.ReassemblyTimeout, r.gcFn)
	}
}

// next releases engine e for its following cell.
func (r *receiver) next(e int) {
	r.processing[e] = false
	r.process(e)
}

// Errors surfaced by the interface API.
var errVCExists = errors.New("nic: VC already open")
