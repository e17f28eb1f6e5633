package nic

import (
	"slices"

	"repro/internal/aal"
	"repro/internal/atm"
	"repro/internal/bus"
	"repro/internal/engine"
	"repro/internal/fifo"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/tm"
)

// TxStats is the transmit-side snapshot assembled from the telemetry
// registry (see Interface.Stats).
type TxStats struct {
	Packets    uint64 // packets fully segmented
	Cells      uint64 // data cells emitted to the FIFO
	Bytes      uint64 // SDU bytes accepted
	IdleSlots  uint64 // cell-clock slots with an empty TX FIFO
	FifoStalls uint64 // times the engine stalled on a full TX FIFO
	DMAWaits   uint64 // times production waited for staging DMA
	PaceWaits  uint64 // times production waited on per-VC pacing
	QueuedMax  int    // per-VC descriptor queue high-water mark
}

// txVC is the per-connection transmit state: queued descriptors, the
// in-progress frame's segmentation state, staging progress, and the leaky-
// bucket pacing state. The board kept exactly this per-VC record in its
// transmit tables.
type txVC struct {
	vc      atm.VC
	t       *transmitter
	pending []*txDesc
	seg     aal.Segmenter
	vst     *metrics.VCStats

	// closed is set when the VC is closed. A descriptor resolved to this
	// record before the close looks the VC up again (it may have been
	// reopened), and a frame still draining retires from the round-robin
	// when it completes.
	closed bool

	active    bool
	desc      *txDesc // the frame in progress
	cellsLeft int
	cellIdx   int
	staged    int
	stagedOff int
	awaitDMA  bool

	// minGap is the pacing interval between consecutive cells of this VC
	// (0 = line rate); nextEligible is when the next cell may be emitted.
	// When the VC carries a full traffic contract, shaper supersedes
	// minGap: departure times follow the contract's GCRA state instead of
	// a fixed gap (PCR bursts, then SCR). A PCR-only shaper is not the same
	// mechanism: it charges txCellShapeExtra per cell and rounds 1e9/PCR
	// where SetPeakCellRate truncates (DESIGN § Extensions).
	minGap       sim.Duration
	nextEligible sim.Time
	shaper       *tm.Shaper

	// abr, when armed (Interface.SetABR), makes the shaper rate track the
	// closed-loop ACR and interleaves forward RM cells every Nrm cells.
	abr *abrTx

	// Staging-DMA completion state: one burst is in flight per frame, so a
	// single pre-bound callback per VC replaces a closure per burst.
	stageDoneFn func()
	stageT0     sim.Time
	stageChunk  int
}

// stageDone is the staging-DMA completion: account the burst, chain the
// next one, and resume the engine if it was waiting on these bytes.
func (st *txVC) stageDone() {
	t := st.t
	t.hDMAWait.Observe(t.k.Now() - st.stageT0)
	st.staged += st.stageChunk
	t.stageNextChunk(st)
	if st.awaitDMA {
		st.awaitDMA = false
		t.schedule()
	}
}

// transmitter is the send half: per-VC descriptor queues, a single
// segmentation engine shared round-robin across active frames (when
// interleaving is enabled), staging DMA, per-VC pacing, and the TX cell
// FIFO drained by the cell clock.
type transmitter struct {
	k    *sim.Kernel
	cfg  *Config
	eng  *engine.Engine
	dev  *bus.Device
	pool *atm.Pool
	out  atm.CellConsumer

	fifo  *fifo.Queue
	vcs   map[atm.VC]*txVC
	order []*txVC // round-robin order (registration order)
	rr    int     // next round-robin index

	// Work counts, so the dispatcher and the cell clock need not scan
	// order: frames in progress (active VCs in order) and descriptors
	// queued across all VCs.
	nActive int
	nQueued int

	busy        bool // an engine routine is in flight
	stalled     bool // production blocked on FIFO space
	wakePending bool // a pacing wakeup is scheduled

	// held is a produced data cell waiting for FIFO space: a management
	// cell took the slot the stall check saw free while the engine was
	// producing it. The next cell slot admits it, ahead of any later cell.
	// A held cell is late, not lost, so no drop counts it.
	held *atm.Cell

	// Engine-routine completion state. The engine runs one transmit
	// routine at a time (busy serializes), so the in-flight routine's VC
	// parks here and pre-bound completion methods replace the per-cell
	// closures the hot path used to allocate.
	curSt       *txVC
	curDesc     *txDesc
	startDoneFn func()
	cellDoneFn  func()
	doneDoneFn  func()
	tickFn      func()
	wakeFn      func()

	cellTime     sim.Duration
	clockRunning bool

	// Telemetry: instruments live in the interface's registry. The FIFO
	// times each cell's residency (admit → cell clock) into the tx
	// cell-delay histogram.
	reg        *metrics.Registry
	mPackets   *metrics.Counter
	mCells     *metrics.Counter
	mBytes     *metrics.Counter
	mIdleSlots *metrics.Counter
	mStalls    *metrics.Counter
	mDMAWaits  *metrics.Counter
	mPaceWaits *metrics.Counter
	mFRM       *metrics.Counter
	gQueued    *metrics.Gauge
	hDMAWait   *metrics.Histogram
}

func newTransmitter(k *sim.Kernel, cfg *Config, eng *engine.Engine, dev *bus.Device,
	pool *atm.Pool, cellTime sim.Duration, reg *metrics.Registry,
	prefix string, out atm.CellConsumer) *transmitter {
	t := &transmitter{
		k: k, cfg: cfg, eng: eng, dev: dev, pool: pool, out: out,
		fifo:     fifo.NewQueue(k, 1, cfg.TxFifoDepth, pool, reg, metrics.DropMgmtTxFull),
		vcs:      make(map[atm.VC]*txVC),
		cellTime: cellTime,
		reg:      reg,
	}
	t.startDoneFn = t.startDone
	t.cellDoneFn = t.cellDone
	t.doneDoneFn = t.doneDone
	t.tickFn = t.tick
	t.wakeFn = t.wake
	t.fifo.Ring(0).Instrument(reg, scoped(prefix, "fifo.tx"))
	t.mPackets = reg.Counter(scoped(prefix, "nic.tx.packets"))
	t.mCells = reg.Counter(scoped(prefix, "nic.tx.cells"))
	t.mBytes = reg.Counter(scoped(prefix, "nic.tx.bytes"))
	t.mIdleSlots = reg.Counter(scoped(prefix, "nic.tx.idle_slots"))
	t.mStalls = reg.Counter(scoped(prefix, "nic.tx.fifo_stalls"))
	t.mDMAWaits = reg.Counter(scoped(prefix, "nic.tx.dma_waits"))
	t.mPaceWaits = reg.Counter(scoped(prefix, "nic.tx.pace_waits"))
	t.mFRM = reg.Counter(scoped(prefix, "nic.abr.frm_tx"))
	t.gQueued = reg.Gauge(scoped(prefix, "nic.tx.queued"))
	t.fifo.Residency = reg.Histogram(scoped(prefix, "nic.tx.cell_delay"))
	t.hDMAWait = reg.Histogram(scoped(prefix, "nic.tx.dma_wait"))
	return t
}

// snapshot assembles the legacy TxStats view from the registry instruments.
func (t *transmitter) snapshot() TxStats {
	return TxStats{
		Packets:    t.mPackets.Value(),
		Cells:      t.mCells.Value(),
		Bytes:      t.mBytes.Value(),
		IdleSlots:  t.mIdleSlots.Value(),
		FifoStalls: t.mStalls.Value(),
		DMAWaits:   t.mDMAWaits.Value(),
		PaceWaits:  t.mPaceWaits.Value(),
		QueuedMax:  int(t.gQueued.Max()),
	}
}

// open registers a VC for transmit.
func (t *transmitter) open(vc atm.VC) {
	if _, ok := t.vcs[vc]; ok {
		return
	}
	st := &txVC{vc: vc, t: t, seg: aal.NewSegmenter(t.cfg.AAL), vst: t.reg.VC(vc.VPI, vc.VCI)}
	st.stageDoneFn = st.stageDone
	t.vcs[vc] = st
	t.order = append(t.order, st)
}

// close deregisters a VC. Queued descriptors are dropped; a frame already
// being segmented runs to completion (cells of a partial AAL frame on the
// wire would only poison the receiver).
func (t *transmitter) close(vc atm.VC) {
	st, ok := t.vcs[vc]
	if !ok {
		return
	}
	for _, d := range st.pending {
		d.drop()
	}
	t.nQueued -= len(st.pending)
	st.pending = nil
	st.closed = true
	delete(t.vcs, vc)
	if !st.active { // an active VC stays in the round-robin until its frame drains
		t.unlink(st)
	}
}

// unlink removes st from the round-robin order. The next index stays on
// the VC that was due next, and wraps to 0 past the end.
func (t *transmitter) unlink(st *txVC) {
	i := slices.Index(t.order, st)
	t.order = slices.Delete(t.order, i, i+1)
	if t.rr > i {
		t.rr--
	}
	if t.rr == len(t.order) {
		t.rr = 0
	}
}

// setShaper installs GCRA shaping to a traffic contract (replacing any
// plain pacing gap); a nil shaper removes it.
func (st *txVC) setShaper(sh *tm.Shaper) {
	st.shaper = sh
	if sh != nil {
		st.minGap = 0
	}
}

// enqueue accepts a descriptor (already paid for by the host). It reports
// false, leaving d to the caller, when d's VC is not open. A VC closed
// while the host was posting is looked up again: if it has been reopened,
// the descriptor goes to the new VC.
func (t *transmitter) enqueue(d *txDesc) bool {
	st := d.st
	if st.closed {
		if st = t.vcs[st.vc]; st == nil {
			return false
		}
		d.st = st
	}
	st.pending = append(st.pending, d)
	t.nQueued++
	t.gQueued.Set(int64(len(st.pending)))
	t.schedule()
	return true
}

// schedule is the transmit engine's dispatcher: one engine routine at a
// time, choosing between starting a new frame and producing the next cell
// of an active one, round-robin across VCs.
func (t *transmitter) schedule() {
	if t.busy || t.stalled {
		return
	}
	// Starting pending frames comes first: each start is a one-time
	// per-frame event, and in interleaved mode a newly arrived frame must
	// join the round-robin immediately or a busy bulk VC would lock it
	// out indefinitely. (In serial mode a start is only allowed when no
	// frame is active, so cell production still runs uninterrupted.)
	if t.scheduleStart() {
		return
	}
	t.scheduleCell()
}

// scheduleStart begins the next pending frame if policy allows; it reports
// whether a routine was dispatched.
func (t *transmitter) scheduleStart() bool {
	if t.nQueued == 0 || (!t.cfg.InterleaveVCs && t.nActive > 0) {
		return false
	}
	n := len(t.order)
	idx := t.rr
	for i := 0; i < n; i++ {
		if st := t.order[idx]; !st.active && len(st.pending) > 0 {
			t.runStart(st)
			return true
		}
		if idx++; idx == n {
			idx = 0
		}
	}
	return false
}

// scheduleCell runs the per-cell firmware for the next eligible active VC.
func (t *transmitter) scheduleCell() {
	if t.nActive == 0 {
		return
	}
	n := len(t.order)
	idx := t.rr
	earliest := sim.Never
	now := t.k.Now()
	for i := 0; i < n; i, idx = i+1, idx+1 {
		if idx == n {
			idx = 0
		}
		st := t.order[idx]
		if !st.active || st.awaitDMA {
			continue
		}
		if st.nextEligible > now {
			if st.nextEligible < earliest {
				earliest = st.nextEligible
			}
			continue
		}
		if t.fifo.Full() {
			t.stalled = true
			t.mStalls.Inc()
			return // the cell clock will resume us
		}
		if !t.stagedEnough(st) {
			st.awaitDMA = true
			t.mDMAWaits.Inc()
			continue
		}
		if t.rr = idx + 1; t.rr == n {
			t.rr = 0
		}
		t.runCell(st)
		return
	}
	if earliest != sim.Never && !t.wakePending {
		// Everything runnable is pacing-blocked: wake at the earliest
		// eligibility.
		t.wakePending = true
		t.mPaceWaits.Inc()
		t.k.Post(earliest, t.wakeFn)
	}
}

// wake resumes the dispatcher after a pacing wait.
func (t *transmitter) wake() {
	t.wakePending = false
	t.schedule()
}

// stagedEnough reports whether the bytes the next cell needs are on board.
func (t *transmitter) stagedEnough(st *txVC) bool {
	need := (st.cellIdx + 1) * t.cfg.perCellPayload()
	if n := len(st.desc.sdu); need > n {
		need = n
	}
	return st.staged >= need
}

// runStart executes the per-packet setup firmware.
func (t *transmitter) runStart(st *txVC) {
	t.busy = true
	t.curSt = st
	t.curDesc = st.pending[0]
	st.pending = st.pending[:copy(st.pending, st.pending[1:])]
	t.nQueued--
	instr := txStartInstr
	if t.cfg.AAL == aal.AAL34 {
		instr += txStartAAL34Extra
	}
	t.eng.Run(instr, t.startDoneFn)
}

// startDone is the tx_start routine completion.
func (t *transmitter) startDone() {
	st, d := t.curSt, t.curDesc
	t.curSt, t.curDesc = nil, nil
	t.busy = false
	if st.closed {
		// The VC closed while the start routine ran: the descriptor is
		// dropped like the ones still queued, and no cell of it is sent.
		d.drop()
		t.schedule()
		return
	}
	cells, err := st.seg.Begin(d.sdu)
	if err != nil {
		panic("nic: segmenter rejected validated SDU: " + err.Error())
	}
	st.active = true
	t.nActive++
	st.desc = d
	st.cellsLeft = cells
	st.cellIdx = 0
	st.staged = 0
	st.stagedOff = 0
	t.mBytes.Add(uint64(len(d.sdu)))
	t.stageNextChunk(st)
	t.schedule()
}

// stageNextChunk issues the next staging DMA burst (host memory → adapter
// buffer) for a VC's in-progress frame. Chunks are separate bus
// transactions, so other devices interleave between them.
func (t *transmitter) stageNextChunk(st *txVC) {
	remaining := len(st.desc.sdu) - st.stagedOff
	if remaining <= 0 {
		return
	}
	chunk := remaining
	if mb := t.dev.MaxBurst(); mb > 0 && chunk > mb {
		chunk = mb
	}
	st.stagedOff += chunk
	st.stageT0 = t.k.Now()
	st.stageChunk = chunk
	t.dev.DMA(chunk, st.stageDoneFn)
}

// runCell executes the per-cell segmentation firmware for one cell of st.
func (t *transmitter) runCell(st *txVC) {
	t.busy = true
	t.curSt = st
	instr := txCellInstr
	if st.cellsLeft == 1 {
		instr += txCellLastExtra
	}
	if t.cfg.AAL == aal.AAL34 {
		instr += txCellAAL34Extra
	}
	if st.shaper != nil {
		instr += txCellShapeExtra
	}
	t.eng.Run(instr, t.cellDoneFn)
}

// cellDone is the tx_cell routine completion: emit the produced cell into
// the FIFO and keep the pipeline moving.
func (t *transmitter) cellDone() {
	st := t.curSt
	t.curSt = nil
	t.busy = false
	cell := t.pool.Get()
	pt, done, err := st.seg.Next(&cell.Payload)
	if err != nil {
		panic("nic: segmenter failed mid-frame: " + err.Error())
	}
	cell.Header = atm.Header{
		Format: atm.UNI,
		VPI:    st.vc.VPI,
		VCI:    st.vc.VCI,
		PT:     pt,
	}
	if t.fifo.Full() {
		t.held = cell // a management cell took the slot; schedule below stalls
	} else {
		t.fifo.Admit(cell, 0)
	}
	t.mCells.Inc()
	st.vst.AddCellOut()
	st.cellIdx++
	st.cellsLeft--
	if st.shaper != nil {
		st.nextEligible = st.shaper.NextEligible(t.k.Now())
	} else if st.minGap > 0 {
		st.nextEligible = t.k.Now() + st.minGap
	}
	t.startClock()
	if st.abr != nil {
		t.maybeSendFRM(st)
	}
	if done {
		t.finishFrame(st)
		return
	}
	t.schedule()
}

// finishFrame runs the per-packet completion firmware.
func (t *transmitter) finishFrame(st *txVC) {
	t.busy = true
	t.curSt = st
	t.eng.Run(txDoneInstr, t.doneDoneFn)
}

// doneDone is the tx_done routine completion.
func (t *transmitter) doneDone() {
	st := t.curSt
	t.curSt = nil
	t.busy = false
	t.mPackets.Inc()
	d := st.desc
	st.vst.AddSDUOut(len(d.sdu))
	st.active = false
	t.nActive--
	st.desc = nil
	if st.closed {
		// The VC was closed mid-frame; retire it from round-robin.
		t.unlink(st)
	}
	// The segmenter dropped its reference on the final cell, so Send's
	// copy can recycle as the host is interrupted.
	d.sent()
	t.schedule()
}

// injectCell admits a fully formed cell (management traffic) straight into
// the TX FIFO, ahead of no one: it takes the next free slot like any other
// cell. Best-effort: a full FIFO drops it (OAM has no delivery guarantee),
// counting DropMgmtTxFull and taking the cell back to the pool.
func (t *transmitter) injectCell(c *atm.Cell) bool {
	if !t.fifo.Admit(c, 0) {
		return false
	}
	t.mCells.Inc()
	t.reg.VC(c.Header.VPI, c.Header.VCI).AddCellOut()
	t.startClock()
	return true
}

// pendingWork reports whether anything remains to transmit.
func (t *transmitter) pendingWork() bool { return t.nActive > 0 || t.nQueued > 0 }

// startClock ensures the cell clock is ticking; it stops itself when idle
// so simulations terminate.
func (t *transmitter) startClock() {
	if t.clockRunning {
		return
	}
	t.clockRunning = true
	t.k.PostAfter(t.cellTime, t.tickFn)
}

// tick is one cell slot on the wire.
func (t *transmitter) tick() {
	cell, ok := t.fifo.Leave()
	if ok {
		t.out.DeliverCell(cell)
		if h := t.held; h != nil {
			t.held = nil
			t.fifo.Admit(h, 0) // into the slot just freed
		}
		if t.stalled {
			t.stalled = false
			t.schedule()
		}
	} else {
		t.mIdleSlots.Inc()
		if !t.pendingWork() {
			t.clockRunning = false
			return
		}
	}
	t.k.PostAfter(t.cellTime, t.tickFn)
}
