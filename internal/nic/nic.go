package nic

import (
	"errors"
	"fmt"

	"repro/internal/aal"
	"repro/internal/atm"
	"repro/internal/bufpool"
	"repro/internal/bus"
	"repro/internal/engine"
	"repro/internal/host"
	"repro/internal/metrics"
	"repro/internal/oam"
	"repro/internal/sim"
	"repro/internal/tm"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/vclookup"
)

// Interface is one host–network interface: the transmit and receive halves,
// their protocol engines, their cell FIFOs, and their attachment to the
// host's bus and CPU.
type Interface struct {
	k    *sim.Kernel
	cfg  Config
	hst  *host.Host
	pool *atm.Pool
	buf  *bufpool.Pool // Send's copies of the host's SDUs

	txEngine  *engine.Engine
	rxEngines []*engine.Engine
	txDev     *bus.Device // transmit staging DMA
	rxDev     *bus.Device // receive completion DMA
	hostDev   *bus.Device // host PIO (descriptor writes)

	tx *transmitter
	rx *receiver
	fm *faultMgr

	reg        *metrics.Registry
	onLoopback func(vc atm.VC, correlation uint32)

	// freeTx holds retired transmit descriptor records (see desc.go); the
	// list grows on demand and nothing is preallocated.
	freeTx *txDesc

	// ABR management-path counters (see abr.go).
	mRMTurn *metrics.Counter // forward RM cells turned around as destination
	mBRMRx  *metrics.Counter // backward RM cells consumed as source
}

// Errors surfaced by the interface API.
var (
	ErrBadSDU    = errors.New("nic: SDU empty or exceeds configured MaxSDU")
	ErrUnknownVC = errors.New("nic: VC not open")
	ErrTableFull = errors.New("nic: VC table full")
	ErrVCExists  = errVCExists
)

// New builds an interface attached to the given host CPU and bus. Cells are
// drawn from and recycled into pool, which belongs to the kernel k: every
// station and switch on one kernel shares it, so a cell one interface
// transmits is recycled wherever it is consumed or dropped.
func New(k *sim.Kernel, cfg Config, hst *host.Host, b *bus.Bus, pool *atm.Pool) (*Interface, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if hst == nil || b == nil || pool == nil {
		return nil, fmt.Errorf("nic: nil host, bus or cell pool")
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	i := &Interface{
		k:        k,
		cfg:      cfg,
		hst:      hst,
		pool:     pool,
		buf:      bufpool.New(),
		txEngine: engine.New(k, cfg.Engine),
		txDev:    b.Attach(cfg.Name + ".txdma"),
		rxDev:    b.Attach(cfg.Name + ".rxdma"),
		hostDev:  b.Attach(cfg.Name + ".pio"),
		reg:      reg,
	}
	i.mRMTurn = reg.Counter(scoped(cfg.Name, "nic.abr.turnaround"))
	i.mBRMRx = reg.Counter(scoped(cfg.Name, "nic.abr.brm_rx"))
	i.txEngine.Instrument(reg, scoped(cfg.Name, "engine.txeng"))
	i.buf.Instrument(reg, scoped(cfg.Name, "nic.bufpool"))
	for e := 0; e < cfg.RxEngines; e++ {
		eng := engine.New(k, cfg.Engine)
		eng.Instrument(reg, scoped(cfg.Name, fmt.Sprintf("engine.rxeng%d", e)))
		i.rxEngines = append(i.rxEngines, eng)
	}
	cellTime := units.CellTime(cfg.PayloadRate)
	i.tx = newTransmitter(k, &i.cfg, i.txEngine, i.txDev, i.pool, cellTime, reg, cfg.Name,
		// Default output discards (no link attached yet).
		atm.SinkFunc(func(c *atm.Cell) { i.pool.Put(c) }))
	i.rx = newReceiver(k, &i.cfg, i.rxEngines, i.rxDev, hst, i.pool, reg, cfg.Name)
	i.fm = newFaultMgr(i)
	// Management slow path: the receive firmware classifies every OAM cell
	// (one CRC-checked dispatch peek), answers F5 loopback requests by
	// reflecting the cell through the transmit FIFO, feeds AIS/RDI alarms
	// into the fault state machine, and counts everything else — damaged
	// or unhandled — as a visible drop instead of a silent one.
	i.rx.onOAM = func(e int, c *atm.Cell) {
		if c.Header.PT == atm.PTResourceMgmt {
			// ABR resource-management cells have their own payload format;
			// dispatch them before the OAM classifier (abr.go).
			i.handleRM(c)
			return
		}
		typ, fn, ok := oam.Classify(&c.Payload)
		if !ok || typ != oam.TypeFaultMgmt {
			i.rx.badOAM(c)
			return
		}
		switch fn {
		case oam.FuncLoopback:
			var lb oam.Loopback
			if err := lb.Decode(&c.Payload); err != nil {
				i.rx.badOAM(c)
				return
			}
			if lb.Indication {
				// Respond cannot fail on a cell that decoded as a
				// loopback request; injectCell drops it if the FIFO is full.
				_ = oam.Respond(c)
				i.tx.injectCell(c)
				return
			}
			if i.onLoopback != nil {
				i.onLoopback(c.Header.VC(), lb.Correlation)
			}
			i.pool.Put(c)
		case oam.FuncAIS:
			i.fm.rxAIS(e, c.Header.VC())
			i.pool.Put(c)
		case oam.FuncRDI:
			i.fm.rxRDI(e, c.Header.VC())
			i.pool.Put(c)
		default:
			i.rx.badOAM(c)
		}
	}
	return i, nil
}

// SendLoopback emits an F5 loopback request on vc. The reply (if the far
// end is alive) arrives at the handler registered with OnLoopbackReply.
// Loopback cells bypass the segmentation engine: the host writes them via
// the management register path, so no VC need be open for transmit.
func (i *Interface) SendLoopback(vc atm.VC, correlation uint32) error {
	var src [16]byte
	copy(src[:], i.cfg.Name)
	req := oam.NewRequest(vc, correlation, src)
	cell := i.pool.Get()
	*cell = *req
	if !i.tx.injectCell(cell) {
		return errTxFull
	}
	return nil
}

// OnLoopbackReply registers the handler for loopback responses.
func (i *Interface) OnLoopbackReply(fn func(vc atm.VC, correlation uint32)) {
	i.onLoopback = fn
}

// OnAlarm registers the host-side handler for fault-management declare and
// clear transitions (AIS/RDI per VC, LOS per link). The handler runs after
// the alarm interrupt's host cost; at most one interrupt fires per
// transition, never one per alarm cell.
func (i *Interface) OnAlarm(fn func(AlarmEvent)) { i.fm.onAlarm = fn }

// SignalChange implements phy.SignalConsumer: the attached link (or the
// framer behind it) reports its receive carrier lost or restored. Loss
// declares the link-scope LOS defect and starts upstream RDI generation on
// every open VC.
func (i *Interface) SignalChange(up bool) { i.fm.signalChange(up) }

// FMStats returns the fault-management counters.
func (i *Interface) FMStats() FMStats { return i.fm.snapshot() }

// SRAMUsed returns the adapter reassembly bytes currently pinned — the
// live buffer occupancy the reassembly garbage collector bounds.
func (i *Interface) SRAMUsed() int { return i.rx.alloc.Used() }

var errTxFull = errors.New("nic: TX FIFO full, management cell dropped")

// Config returns the interface configuration.
func (i *Interface) Config() Config { return i.cfg }

// Pool returns the kernel's cell pool the interface draws from and
// recycles into; links that deliver cells into this interface should draw
// from it so cells recycle.
func (i *Interface) Pool() *atm.Pool { return i.pool }

// AttachSink attaches the transmit side to a downstream consumer (a link,
// a switch port): it receives one encoded cell per occupied cell slot, with
// ownership transferring on delivery. Implements atm.CellProducer; together
// with DeliverCell it makes the interface a full atm.CellConduit.
func (i *Interface) AttachSink(out atm.CellConsumer) {
	if out == nil {
		panic("nic: nil output")
	}
	i.tx.out = out
}

// OnReceive registers the host-side delivery callback.
func (i *Interface) OnReceive(fn func(Delivered)) { i.rx.onDeliver = fn }

// OpenVC opens a VC for both send and receive. The interface sits on a
// UNI, so a VPI its header cannot carry is refused with atm.ErrVPIRange.
func (i *Interface) OpenVC(vc atm.VC) error {
	if vc.VPI > atm.UNI.MaxVPI() {
		return fmt.Errorf("nic: %w: VPI %d under %v", atm.ErrVPIRange, vc.VPI, atm.UNI)
	}
	if i.tx.vcs[vc] != nil {
		return ErrVCExists
	}
	if err := i.rx.open(vc); err != nil {
		switch {
		case errors.Is(err, vclookup.ErrFull):
			return ErrTableFull
		case errors.Is(err, vclookup.ErrDuplicate):
			return ErrVCExists
		default:
			return err
		}
	}
	i.tx.open(vc)
	return nil
}

// CloseVC tears down a VC: queued transmit descriptors are dropped (a frame
// already being segmented drains), and the receive side discards any
// partial frame. A dropped descriptor's onSent never fires, including a
// Send whose descriptor the host is still posting when the VC closes.
func (i *Interface) CloseVC(vc atm.VC) {
	i.tx.close(vc)
	i.rx.close(vc)
	i.fm.close(vc)
}

// SetMID stamps the AAL3/4 multiplexing identifier used for vc's frames
// (10 bits; meaningful with a MIDMux receiver on a shared VC).
func (i *Interface) SetMID(vc atm.VC, mid uint16) error {
	st := i.tx.vcs[vc]
	if st == nil {
		return ErrUnknownVC
	}
	if mid > 0x3ff {
		return fmt.Errorf("nic: MID %d exceeds 10 bits", mid)
	}
	seg, ok := st.seg.(*aal.Segmenter34)
	if !ok {
		return fmt.Errorf("nic: SetMID requires the AAL3/4 build")
	}
	seg.MID = mid
	return nil
}

// SetPeakCellRate installs per-VC transmit pacing: cells of vc leave at
// most every 1/cellsPerSec seconds (a depth-1 leaky bucket — the usage
// parameter control knob ATM networks police at the UNI). cellsPerSec <= 0
// restores line rate.
func (i *Interface) SetPeakCellRate(vc atm.VC, cellsPerSec float64) error {
	st := i.tx.vcs[vc]
	if st == nil {
		return ErrUnknownVC
	}
	var gap sim.Duration
	if cellsPerSec > 0 {
		gap = sim.Duration(1e9 / cellsPerSec)
	}
	st.minGap = gap
	return nil
}

// SetContract installs a full traffic contract on vc: the transmit side
// shapes departures with the contract's GCRA state (MBS-bounded bursts at
// PCR, then SCR), so the stream passes an ingress policer enforcing the
// same contract — SetPeakCellRate's fixed gap generalized to the dual
// leaky bucket. A zero-PCR contract removes shaping.
func (i *Interface) SetContract(vc atm.VC, c tm.TrafficContract) error {
	st := i.tx.vcs[vc]
	if st == nil {
		return ErrUnknownVC
	}
	if c.PCR <= 0 {
		st.setShaper(nil)
		return nil
	}
	if err := c.Validate(); err != nil {
		return err
	}
	st.setShaper(tm.NewShaper(c))
	return nil
}

// Send queues one SDU for transmission on vc. The host CPU cost (stack +
// driver) and the descriptor PIO are charged before the adapter sees the
// descriptor; onSent (may be nil) fires after the transmit-complete
// interrupt — i.e. when the host could reuse the buffer. The caller keeps
// sdu: the interface transmits from a copy drawn from its buffer pool
// (counted as "nic.bufpool.*"), which recycles once the frame is segmented.
func (i *Interface) Send(vc atm.VC, sdu []byte, onSent func()) error {
	return i.send(vc, sdu, true, onSent)
}

// SendOwned queues one SDU for transmission without copying it: ownership
// of sdu's backing array transfers to the interface until onSent fires (the
// transmit-complete interrupt), after which the caller may reuse it. This
// is the zero-copy path for hosts that manage their own buffers — the
// driver handing the adapter a DMA address instead of a fresh copy. Timing
// is identical to Send; only the untimed copy disappears.
func (i *Interface) SendOwned(vc atm.VC, sdu []byte, onSent func()) error {
	return i.send(vc, sdu, false, onSent)
}

// DeliverCell is the link-side entry point for arriving cells. The
// interface recycles the cell into its Pool once consumed or dropped.
func (i *Interface) DeliverCell(c *atm.Cell) { i.rx.deliverCell(c) }

// Stats is a point-in-time snapshot of every counter the experiments read,
// assembled from the interface's registry instruments, plus the engines'
// utilization and the adapter SRAM peak.
type Stats struct {
	Tx        TxStats
	Rx        RxStats
	TxEngUtil float64
	RxEngUtil float64
	SRAMPeak  int
}

// Stats returns the snapshot. With multiple receive engines, Rx.MaxFifo is
// the deepest of the per-engine FIFOs' watermarks and RxEngUtil is the mean
// engine utilization.
func (i *Interface) Stats() Stats {
	rx := i.rx.snapshot()
	for _, f := range i.rx.fifos {
		rx.MaxFifo = max(rx.MaxFifo, f.Ring(0).Stats().MaxDepth)
	}
	var rxUtil float64
	for _, e := range i.rxEngines {
		rxUtil += e.Utilization()
	}
	rxUtil /= float64(len(i.rxEngines))
	return Stats{
		Tx:        i.tx.snapshot(),
		Rx:        rx,
		TxEngUtil: i.txEngine.Utilization(),
		RxEngUtil: rxUtil,
		SRAMPeak:  i.rx.alloc.Peak(),
	}
}

// SetRecorder installs flight-recorder stage spans on the interface's
// datapath: "<name>/tx.fifo" (cell produced → cell clock), "<name>/rx.fifo"
// (arrival → engine pop), "<name>/rx.reasm" (first cell → frame complete)
// and "<name>/rx.deliver" (host delivery instant), plus the drop events
// each stage can suffer. A nil recorder detaches: the hooks collapse back
// to one nil test per cell and zero allocations.
func (i *Interface) SetRecorder(rec *trace.Recorder) {
	name := i.cfg.Name
	i.tx.fifo.Stage = rec.Stage(name, "tx.fifo")
	rxFifo := rec.Stage(name, "rx.fifo")
	for _, f := range i.rx.fifos {
		f.Stage = rxFifo
	}
	i.rx.spReasm = rec.Stage(name, "rx.reasm")
	i.rx.spDeliver = rec.Stage(name, "rx.deliver")
}

// Metrics returns the telemetry registry the interface records into —
// the one from Config.Metrics, or the private registry created when the
// config left it nil.
func (i *Interface) Metrics() *metrics.Registry { return i.reg }

// TxEngine exposes the transmit engine (for headroom analysis).
func (i *Interface) TxEngine() *engine.Engine { return i.txEngine }

// RxEngine exposes the first receive engine.
func (i *Interface) RxEngine() *engine.Engine { return i.rxEngines[0] }

// RxEngines exposes all receive engines.
func (i *Interface) RxEngines() []*engine.Engine { return i.rxEngines }
