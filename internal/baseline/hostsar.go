package baseline

import (
	"errors"

	"repro/internal/aal"
	"repro/internal/atm"
	"repro/internal/bus"
	"repro/internal/fifo"
	"repro/internal/host"
	"repro/internal/sim"
	"repro/internal/units"
)

// HostSAR is the per-cell-interrupt baseline adapter: FIFOs and a framer,
// nothing else. All adaptation-layer work runs on the host CPU, and every
// cell crosses the bus under programmed I/O.
type HostSAR struct {
	k       *sim.Kernel
	hst     *host.Host
	dev     *bus.Device
	pioTime sim.Duration // wall time of one cell's PIO transfer
	pool    *atm.Pool
	out     func(*atm.Cell)
	maxSDU  int
	aalType aal.Type

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
	onDeliver func(vc atm.VC, sdu []byte)

	stats HostSARStats
}

type hostTxJob struct {
	vc     atm.VC
	sdu    []byte
	onSent func()
}

// HostSARStats counts baseline events.
type HostSARStats struct {
	TxPackets uint64
	TxCells   uint64
	RxCells   uint64
	RxDrops   uint64
	RxPackets uint64
	RxBytes   uint64
	AALErrors uint64
	IdleSlots uint64
}

// Config for the baseline adapter.
type Config struct {
	PayloadRate units.BitRate
	AAL         aal.Type
	TxFifoDepth int
	RxFifoDepth int
	MaxSDU      int
}

// DefaultConfig mirrors the programmable interface's defaults.
func DefaultConfig() Config {
	return Config{
		PayloadRate: units.STS3cPayload,
		AAL:         aal.AAL5,
		TxFifoDepth: 32,
		RxFifoDepth: 32,
		MaxSDU:      aal.MaxSDU,
	}
}

// Errors.
var (
	ErrBadSDU = errors.New("baseline: SDU empty or oversize")
)

// NewHostSAR builds the baseline adapter on the given host and bus.
func NewHostSAR(k *sim.Kernel, cfg Config, hst *host.Host, b *bus.Bus) *HostSAR {
	if cfg.MaxSDU <= 0 || cfg.MaxSDU > aal.MaxSDU {
		cfg.MaxSDU = aal.MaxSDU
	}
	seg, _ := aal.New(cfg.AAL, 0)
	h := &HostSAR{
		k: k, hst: hst, dev: b.Attach("hostsar"),
		pioTime:  sim.Duration(cellPIOWords) * b.Config().PIOTime,
		pool:     atm.NewPool(cfg.TxFifoDepth + cfg.RxFifoDepth + 16),
		maxSDU:   cfg.MaxSDU,
		aalType:  cfg.AAL,
		txFifo:   fifo.NewRing[*atm.Cell](cfg.TxFifoDepth),
		rxFifo:   fifo.NewRing[*atm.Cell](cfg.RxFifoDepth),
		seg:      seg,
		ras:      make(map[atm.VC]aal.Reassembler),
		cellTime: units.CellTime(cfg.PayloadRate),
		out:      nil,
	}
	h.out = func(c *atm.Cell) { h.pool.Put(c) }
	return h
}

// Pool returns the adapter's cell pool.
func (h *HostSAR) Pool() *atm.Pool { return h.pool }

// Stats returns the counters.
func (h *HostSAR) Stats() HostSARStats { return h.stats }

// AttachSink attaches the transmit side to a downstream consumer
// (atm.CellProducer).
func (h *HostSAR) AttachSink(out atm.CellConsumer) {
	if out == nil {
		panic("baseline: nil output")
	}
	h.out = out.DeliverCell
}

// OnReceive registers the delivery callback.
func (h *HostSAR) OnReceive(fn func(vc atm.VC, sdu []byte)) { h.onDeliver = fn }

// OpenVC registers a receive VC (software demux is a map lookup whose cost
// is inside hostRxCellInstr).
func (h *HostSAR) OpenVC(vc atm.VC) {
	if _, ok := h.ras[vc]; !ok {
		h.ras[vc] = aal.NewReassembler(h.aalType, h.maxSDU+64)
	}
}

// Send queues an SDU. The host pays the normal per-packet stack cost, then
// per-cell software segmentation plus PIO for every cell.
func (h *HostSAR) Send(vc atm.VC, sdu []byte, onSent func()) error {
	if len(sdu) == 0 || len(sdu) > h.maxSDU {
		return ErrBadSDU
	}
	buf := make([]byte, len(sdu))
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
			h.stats.TxCells++
			h.startClock()
			if done {
				h.stats.TxPackets++
				h.txBusy = false
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
		h.stats.IdleSlots++
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
		h.stats.RxDrops++
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
	h.stats.RxCells++
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
	ras, ok := h.ras[cell.Header.VC()]
	if !ok || !cell.Header.PT.User() || cell.Header.IsIdle() {
		return
	}
	res, err := ras.Push(&cell.Payload, cell.Header.PT)
	if err != nil {
		h.stats.AALErrors++
	}
	if res != nil {
		// Per-packet stack cost on the final cell. The reassembler's
		// result lives only until its next Push, so the host keeps a copy.
		sdu := append([]byte(nil), res.SDU...)
		vc := cell.Header.VC()
		h.hst.RxCellInterrupt(len(sdu), true, func() {
			h.stats.RxPackets++
			h.stats.RxBytes += uint64(len(sdu))
			if h.onDeliver != nil {
				h.onDeliver(vc, sdu)
			}
		})
	}
}
