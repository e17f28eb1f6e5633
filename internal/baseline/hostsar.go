package baseline

import (
	"fmt"

	"repro/internal/aal"
	"repro/internal/atm"
	"repro/internal/bufpool"
	"repro/internal/bus"
	"repro/internal/fifo"
	"repro/internal/host"
	"repro/internal/nic"
	"repro/internal/sim"
	"repro/internal/units"
)

// HostSAR is the per-cell-interrupt baseline adapter: FIFOs and a framer,
// nothing else. All adaptation-layer work runs on the host CPU, and every
// cell crosses the bus under programmed I/O. It takes nic.New's arguments
// and reports in nic's types (Config, Stats, Delivered), so a builder can
// put it on an endpoint in the interface's place.
type HostSAR struct {
	k       *sim.Kernel
	cfg     nic.Config
	hst     *host.Host
	dev     *bus.Device
	pioTime sim.Duration // wall time of one cell's PIO transfer
	pool    *atm.Pool
	out     func(*atm.Cell)
	// bufs holds Send's copies, each recycled once the segmenter emits
	// the frame's last cell, and the receive buffers lent to onDeliver.
	// It is never instrumented.
	bufs bufpool.Pool

	// Transmit.
	txFifo     *fifo.Ring[*atm.Cell]
	seg        aal.Segmenter
	sendQ      []hostTxJob
	txBusy     bool
	txStalled  bool
	stalledJob *hostTxJob
	cellTime   sim.Duration
	clockOn    bool

	// Receive.
	rxFifo    *fifo.Ring[*atm.Cell]
	ras       map[atm.VC]aal.Reassembler
	rxPending bool
	onDeliver func(nic.Delivered)

	stats nic.Stats
}

type hostTxJob struct {
	vc     atm.VC
	sdu    []byte
	onSent func()
}

// NewHostSAR builds the baseline adapter on the given host and bus. Of cfg
// it reads Name, PayloadRate, AAL, the two FIFO depths and MaxSDU; the
// rest configures engines, tables and memory the adapter does not have.
// Cells are drawn from and recycled into pool, the kernel's cell pool, as
// with nic.New.
func NewHostSAR(k *sim.Kernel, cfg nic.Config, hst *host.Host, b *bus.Bus, pool *atm.Pool) (*HostSAR, error) {
	switch {
	case cfg.PayloadRate <= 0:
		return nil, fmt.Errorf("baseline: non-positive payload rate")
	case cfg.TxFifoDepth <= 0 || cfg.RxFifoDepth <= 0:
		return nil, fmt.Errorf("baseline: FIFO depths must be positive")
	case cfg.MaxSDU > aal.MaxSDU:
		return nil, fmt.Errorf("baseline: MaxSDU %d exceeds AAL limit %d", cfg.MaxSDU, aal.MaxSDU)
	case hst == nil || b == nil || pool == nil:
		return nil, fmt.Errorf("baseline: nil host, bus or cell pool")
	}
	if cfg.MaxSDU <= 0 {
		cfg.MaxSDU = aal.MaxSDU
	}
	h := &HostSAR{
		k: k, cfg: cfg, hst: hst,
		// The name nic gives its host PIO device, so several adapters
		// on one registry keep separate bus counters.
		dev:      b.Attach(cfg.Name + ".pio"),
		pioTime:  sim.Duration(cellPIOWords) * b.Config().PIOTime,
		pool:     pool,
		txFifo:   fifo.NewRing[*atm.Cell](cfg.TxFifoDepth),
		rxFifo:   fifo.NewRing[*atm.Cell](cfg.RxFifoDepth),
		seg:      aal.NewSegmenter(cfg.AAL),
		ras:      make(map[atm.VC]aal.Reassembler),
		cellTime: units.CellTime(cfg.PayloadRate),
	}
	h.out = pool.Put
	return h, nil
}

// Config returns the configuration the adapter was built with.
func (h *HostSAR) Config() nic.Config { return h.cfg }

// Stats returns the counters, in the interface's layout: the fields a
// host-SAR has no hardware for stay zero.
func (h *HostSAR) Stats() nic.Stats { return h.stats }

// AttachSink attaches the transmit side to a downstream consumer
// (atm.CellProducer).
func (h *HostSAR) AttachSink(out atm.CellConsumer) {
	if out == nil {
		panic("baseline: nil output")
	}
	h.out = out.DeliverCell
}

// OnReceive registers the delivery callback.
func (h *HostSAR) OnReceive(fn func(nic.Delivered)) { h.onDeliver = fn }

// OpenVC registers a receive VC (software demux is a map lookup whose cost
// is inside hostRxCellInstr). As on the interface, a VPI the UNI header
// cannot carry is refused, and so is a VC already open.
func (h *HostSAR) OpenVC(vc atm.VC) error {
	if vc.VPI > atm.UNI.MaxVPI() {
		return fmt.Errorf("baseline: %w: VPI %d under %v", atm.ErrVPIRange, vc.VPI, atm.UNI)
	}
	if _, ok := h.ras[vc]; ok {
		return nic.ErrVCExists
	}
	h.ras[vc] = aal.NewReassembler(h.cfg.AAL, h.cfg.MaxSDU+64)
	return nil
}

// CloseVC forgets a receive VC and any partial frame on it.
func (h *HostSAR) CloseVC(vc atm.VC) { delete(h.ras, vc) }

// Send queues an SDU. The host pays the normal per-packet stack cost, then
// per-cell software segmentation plus PIO for every cell.
func (h *HostSAR) Send(vc atm.VC, sdu []byte, onSent func()) error {
	if len(sdu) == 0 || len(sdu) > h.cfg.MaxSDU {
		return nic.ErrBadSDU
	}
	buf := h.bufs.Get(len(sdu))
	copy(buf, sdu)
	h.hst.TxPacket(len(buf), func() {
		h.sendQ = append(h.sendQ, hostTxJob{vc: vc, sdu: buf, onSent: onSent})
		h.txKick()
	})
	return nil
}

func (h *HostSAR) txKick() {
	if h.txBusy || len(h.sendQ) == 0 {
		return
	}
	h.txBusy = true
	job := h.sendQ[0]
	h.sendQ = h.sendQ[:copy(h.sendQ, h.sendQ[1:])]
	if _, err := h.seg.Begin(job.sdu); err != nil {
		panic("baseline: segmenter rejected validated SDU")
	}
	h.txCellLoop(job)
}

// txCellLoop emits one cell per iteration: host CPU does the SAR work, then
// PIO pushes the cell into the adapter FIFO.
func (h *HostSAR) txCellLoop(job hostTxJob) {
	if h.txFifo.Full() {
		// Host spins/backs off until the framer drains a slot; the tick
		// callback resumes us. (The real driver would poll a status
		// register; the polling cost is inside hostTxCellInstr.)
		h.txStalled = true
		h.stalledJob = &job
		return
	}
	h.hst.Work(hostTxCellInstr, func() {
		h.dev.PIO(cellPIOWords, nil) // bus occupancy
		// The CPU spins for the duration of its own programmed I/O.
		h.hst.Spin(h.pioTime, func() {
			cell := h.pool.Get()
			pt, done, err := h.seg.Next(&cell.Payload)
			if err != nil {
				panic("baseline: segmentation failed mid-frame")
			}
			cell.Header = atm.Header{Format: atm.UNI, VPI: job.vc.VPI, VCI: job.vc.VCI, PT: pt}
			if !h.txFifo.Push(cell) {
				// Slot was taken between check and push: treat as
				// stall and retry on next drain.
				h.pool.Put(cell)
				h.txStalled = true
				h.stalledJob = &job
				return
			}
			h.stats.Tx.Cells++
			h.startClock()
			if done {
				h.stats.Tx.Packets++
				h.txBusy = false
				h.bufs.Put(job.sdu)
				if job.onSent != nil {
					job.onSent()
				}
				h.txKick()
				return
			}
			h.txCellLoop(job)
		})
	})
}

func (h *HostSAR) startClock() {
	if h.clockOn {
		return
	}
	h.clockOn = true
	h.k.After(h.cellTime, h.tick)
}

func (h *HostSAR) tick() {
	cell, ok := h.txFifo.Pop()
	if ok {
		h.out(cell)
		if h.txStalled && h.stalledJob != nil {
			h.txStalled = false
			job := *h.stalledJob
			h.stalledJob = nil
			h.txCellLoop(job)
		}
	} else {
		h.stats.Tx.IdleSlots++
		if !h.txBusy && len(h.sendQ) == 0 {
			h.clockOn = false
			return
		}
	}
	h.k.After(h.cellTime, h.tick)
}

// DeliverCell is the link-side entry: every cell interrupts the host, which
// PIO-reads it and runs software reassembly.
func (h *HostSAR) DeliverCell(c *atm.Cell) {
	if !h.rxFifo.Push(c) {
		h.stats.Rx.FifoDrops++
		h.pool.Put(c)
		return
	}
	h.rxKick()
}

func (h *HostSAR) rxKick() {
	if h.rxPending {
		return
	}
	cell, ok := h.rxFifo.Pop()
	if !ok {
		return
	}
	h.rxPending = true
	h.stats.Rx.Cells++
	// Interrupt + PIO read of the cell + software SAR.
	h.hst.RxCellInterrupt(0, false, func() {
		h.dev.PIO(cellPIOWords, nil) // bus occupancy
		h.hst.Spin(h.pioTime, func() {
			h.hst.Work(hostRxCellInstr, func() {
				h.rxProcess(cell)
			})
		})
	})
}

func (h *HostSAR) rxProcess(cell *atm.Cell) {
	defer func() {
		h.pool.Put(cell)
		h.rxPending = false
		h.rxKick()
	}()
	// The host has no firmware to answer OAM or RM cells, and idle cells
	// carry VC 0/0, which no connection uses: each discard is counted
	// under the interface's cause of the same meaning.
	ras, ok := h.ras[cell.Header.VC()]
	switch {
	case !cell.Header.PT.User():
		h.stats.Rx.BadOAM++
		return
	case !ok || cell.Header.IsIdle():
		h.stats.Rx.UnknownVC++
		return
	}
	res, err := ras.Push(&cell.Payload, cell.Header.PT)
	if err != nil {
		h.stats.Rx.AALErrors++
	}
	if res != nil {
		// Per-packet stack cost on the final cell. The reassembler's
		// result lives only until its next Push, so the frame moves into
		// a receive buffer, lent to onDeliver as the interface lends its
		// own (nic.Delivered.SDU).
		d := nic.Delivered{VC: cell.Header.VC(), SDU: h.bufs.Get(len(res.SDU)), Cells: res.Cells}
		copy(d.SDU, res.SDU)
		h.hst.RxCellInterrupt(len(d.SDU), true, func() {
			h.stats.Rx.Packets++
			h.stats.Rx.Bytes += uint64(len(d.SDU))
			if h.onDeliver != nil {
				d.At = h.k.Now()
				h.onDeliver(d)
			}
			h.bufs.Put(d.SDU)
		})
	}
}
