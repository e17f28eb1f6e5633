// Package sonetlink runs the interface over the real physical layer: instead
// of the cell-granular phy.CellLink shortcut, cells are packed into SONET
// frames (with scrambling, BIP parity and HEC-based cell delineation),
// carried as serialized 125 µs frames, and recovered by the receive framer —
// the complete path the board's framer chip implemented.
//
// It exists for two reasons: examples and tests that exercise the whole
// stack, and fault studies where the corruption unit is a line bit rather
// than a cell (a single flipped bit can cost a header, a payload, or — if it
// lands in the overhead — nothing but a parity alarm).
package sonetlink

import (
	"repro/internal/atm"
	"repro/internal/bufpool"
	"repro/internal/fifo"
	"repro/internal/metrics"
	"repro/internal/nic"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/sonet"
	"repro/internal/trace"
	"repro/internal/units"
)

// Config parameterizes the SONET path.
type Config struct {
	// Rate selects STS-3c or STS-12c framing. It must match the
	// interfaces' payload rate or the transmit queue will run dry or
	// overflow; Connect checks.
	Rate sonet.Rate
	// Delay is the fiber propagation delay.
	Delay sim.Duration
	// BitErrProb is the probability each frame suffers one random bit
	// error in flight.
	BitErrProb float64
	// Seed drives fault injection.
	Seed uint64
	// Metrics receives per-direction link telemetry:
	// "link.<src>.data_cells", ".idle_cells", ".frames", ".queue_drops"
	// counters and "link.<src>.queue.*" FIFO instruments, where <src> is
	// the transmitting interface's configured name. Half.Stats reads the
	// same counters. Nil gives each direction a private registry.
	Metrics *metrics.Registry
	// Recorder, when non-nil, attaches flight-recorder spans to each
	// direction under node "link.<src>": stage "framer.queue" covers the
	// transmit queue (enqueue to pull-into-frame) and stage "wire" the
	// framed flight plus the receive-side spreading delay, from the send of
	// the frame that carried the cell's first byte. A data cell framed
	// while the fiber is cut records a link_loss drop on "wire".
	Recorder *trace.Recorder
}

// Stats counts one direction's events, as read from its registry.
type Stats struct {
	Frames      uint64
	DataCells   uint64 // non-idle cells carried
	IdleCells   uint64 // fill inserted when the TX queue ran dry
	QueueDrops  uint64 // TX-side overflow (interface outran the framer)
	FrameErrors uint64 // received frames the deframer rejected outright
	// HeaderDiscards is always zero: the delineator hands up only headers
	// whose HEC has checked, after single-bit correction, so every header
	// it delivers decodes. A header damaged beyond correction is counted in
	// Delineation.HeaderDropped instead. The registry name stays so that
	// every snapshot keeps its set of names.
	HeaderDiscards uint64
	Delineation    sonet.DelineatorStats
	Deframer       sonet.DeframerStats
}

// Link is a duplex SONET-framed connection between two interfaces.
type Link struct {
	AtoB *Half
	BtoA *Half
}

// Half is one direction.
type Half struct {
	k    *sim.Kernel
	cfg  Config
	dst  *nic.Interface
	fr   *sonet.Framer
	df   *sonet.Deframer
	del  *sonet.Delineator
	line *phy.FrameLink

	queue    *fifo.Queue
	srcPool  *atm.Pool
	cellTime sim.Duration
	cellIdx  int // cells recovered from the frame being parsed
	running  bool
	lastData bool     // the last cell the framer pulled carried data
	lastSend sim.Time // when the framer last built a frame

	// The pre-bound tick and the delay line spreading recovered cells keep
	// the per-frame tick and per-cell delivery free of closure allocations.
	frameTickFn func()
	def         *phy.CellDeferrer

	// Registry instruments: the one store of this direction's counts.
	mFrames         *metrics.Counter
	mDataCells      *metrics.Counter
	mIdleCells      *metrics.Counter
	mQueueDrops     *metrics.Counter
	mFrameErrors    *metrics.Counter
	mHeaderDiscards *metrics.Counter

	// The wire span (nil unless Config.Recorder is set) and its timing. The
	// far end decodes each cell afresh, so a span's start travels with its
	// frame: notes holds, for each frame in flight on an intact fiber, when
	// the frame its first completed cell began in was sent (see sendFrame).
	// A frame arrives Delay after its own send (wireSend), and its recovered
	// cells are all delivered before the next frame arrives; wireStart is
	// the start of the next of them delivered.
	spWire      *trace.StageSpan
	notes       []sim.Time // oldest first, capacity fixed at Connect
	wireSend    sim.Time
	wireStart   sim.Time
	slotsAtHead uint64 // delineator cell slots consumed before the frame
}

// Connect wires a and b through SONET framing in both directions. The
// framers tick every 125 µs for as long as the simulation runs them (they
// stop when both directions are idle, so kernels still drain).
func Connect(k *sim.Kernel, cfg Config, a, b *nic.Interface) (*Link, error) {
	for _, ifc := range []*nic.Interface{a, b} {
		if ifc.Config().PayloadRate != cfg.Rate.PayloadRate() {
			return nil, errRateMismatch
		}
	}
	ab := newHalf(k, cfg, a, b)
	ba := newHalf(k, cfg, b, a)
	a.AttachSink(ab)
	b.AttachSink(ba)
	return &Link{AtoB: ab, BtoA: ba}, nil
}

var errRateMismatch = errorString("sonetlink: interface payload rate does not match SONET rate")

type errorString string

func (e errorString) Error() string { return string(e) }

func newHalf(k *sim.Kernel, cfg Config, src, dst *nic.Interface) *Half {
	h := &Half{
		k: k, cfg: cfg, dst: dst,
		// Two frames' worth of cells absorbs the burst mismatch between
		// the interface's smooth cell clock and the framer's 125 µs
		// granularity.
		srcPool:  src.Pool(),
		cellTime: units.CellTime(cfg.Rate.PayloadRate()),
	}
	h.frameTickFn = h.frameTick
	h.def = phy.NewCellDeferrer(k, h.deliverRecovered)
	lp := "link." + src.Config().Name
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	h.queue = fifo.NewQueue(k, 1, 2*cellsPerFrame(cfg.Rate), h.srcPool, reg, metrics.DropTxQueue)
	h.queue.Ring(0).Instrument(reg, lp+".queue")
	h.queue.Stage = cfg.Recorder.Stage(lp, "framer.queue")
	h.spWire = cfg.Recorder.Stage(lp, "wire")
	if h.spWire != nil {
		// A frame is in flight for Delay, and frames leave at least a
		// frame period apart.
		h.notes = make([]sim.Time, 0, int(cfg.Delay/sonet.FramePeriodNs)+2)
	}
	h.mFrames = reg.Counter(lp + ".frames")
	h.mDataCells = reg.Counter(lp + ".data_cells")
	h.mIdleCells = reg.Counter(lp + ".idle_cells")
	h.mQueueDrops = reg.Counter(lp + ".queue_drops")
	h.mFrameErrors = reg.Counter(lp + ".frame_errors")
	h.mHeaderDiscards = reg.Counter(lp + ".header_discards")
	h.fr = sonet.NewFramer(cfg.Rate, (*txSource)(h))
	h.del = sonet.NewDelineator(h.cellRecovered)
	h.df = sonet.NewDeframer(cfg.Rate, h.del)
	// Carrier transitions (Fail/Restore) reach the receiving interface's
	// fault manager: losing the light is LOS, not just silence.
	h.line = phy.NewFrameLink(k, cfg.Delay, cfg.Seed, h.frameArrived, dst)
	h.line.BitErrProb = cfg.BitErrProb
	// The framer builds each frame straight into a pooled wire buffer, and
	// the deframer copies every frame into its own scratch, so the buffer
	// recycles the moment frameArrived returns: one pooled buffer per
	// in-flight window instead of one allocation per frame.
	wirePool := bufpool.New()
	wirePool.Instrument(reg, lp+".wirebuf")
	h.line.SetBufPool(wirePool)
	// Prime the far end's cell delineation with one idle-only frame at
	// link bring-up (44+ idle cells comfortably cover HUNT + the 6-cell
	// PRESYNC confirmation). A real link is never dark before traffic;
	// this models that without running the framer eternally.
	k.At(k.Now(), h.sendFrame)
	return h
}

func cellsPerFrame(r sonet.Rate) int {
	return sonet.Geom(r).PayloadPer/atm.CellSize + 1
}

// Stats returns this direction's counters.
func (h *Half) Stats() Stats {
	return Stats{
		Frames:         h.mFrames.Value(),
		DataCells:      h.mDataCells.Value(),
		IdleCells:      h.mIdleCells.Value(),
		QueueDrops:     h.mQueueDrops.Value(),
		FrameErrors:    h.mFrameErrors.Value(),
		HeaderDiscards: h.mHeaderDiscards.Value(),
		Delineation:    h.del.Stats(),
		Deframer:       h.df.Stats(),
	}
}

// DeliverCell implements atm.CellConsumer: the half is the transmitting
// interface's downstream sink.
func (h *Half) DeliverCell(c *atm.Cell) { h.enqueue(c) }

// enqueue accepts a cell from the transmitting interface's cell clock. A
// full queue drops it as DropTxQueue.
func (h *Half) enqueue(c *atm.Cell) {
	if !h.queue.Admit(c, 0) {
		h.mQueueDrops.Inc()
	}
	if !h.running {
		h.running = true
		h.k.PostAfter(sonet.FramePeriodNs, h.frameTickFn)
	}
}

// frameTick emits one SONET frame every 125 µs while there is anything to
// carry — a queued cell, or the tail of a data cell that crosses into the
// next frame — then lets the line go dark so simulations terminate. (A real
// framer never stops; an eternal event would keep the kernel alive forever.)
func (h *Half) frameTick() {
	h.sendFrame()
	if h.queue.Empty() && !(h.lastData && h.splitCell()) {
		// Emit one more frame's worth of idle and stop until traffic
		// resumes; the receiver's delineation state survives the gap
		// in this model because it is re-fed from a byte-aligned frame.
		h.running = false
		return
	}
	h.k.PostAfter(sonet.FramePeriodNs, h.frameTickFn)
}

// sendFrame builds the next frame and puts it on the fiber. With a
// recorder, a frame that will arrive is noted for the wire spans of the
// cells it completes. Those cells began in this frame, except the first
// when the stream crosses the frame boundary mid-cell: that cell began in
// the previous frame built.
func (h *Half) sendFrame() {
	now := h.k.Now()
	if h.spWire != nil && !h.line.Down() {
		first := now
		if h.splitCell() {
			first = h.lastSend
		}
		h.notes = append(h.notes, first)
	}
	h.lastSend = now
	buf := h.line.Buffer(h.fr.Geometry().FrameBytes)
	h.fr.NextFrame(buf)
	h.line.Send(buf)
	h.mFrames.Inc()
}

// splitCell reports whether the frames built so far end mid-cell: the
// stream has carried PayloadPer bytes per frame, and a remainder short of a
// whole cell is the head of a cell whose tail the next frame carries.
func (h *Half) splitCell() bool {
	return uint64(h.fr.Geometry().PayloadPer)*h.fr.Frames()%atm.CellSize != 0
}

// txSource adapts the queue to the framer's pull interface.
type txSource Half

// idleCell is the I.432 idle cell as it goes on the line, encoded once.
var idleCell = atm.IdleCellWire()

// NextCell implements sonet.CellSource.
func (t *txSource) NextCell(dst []byte) {
	h := (*Half)(t)
	cell, ok := h.queue.Leave()
	h.lastData = ok
	if !ok {
		h.mIdleCells.Inc()
		copy(dst, idleCell[:])
		return
	}
	h.mDataCells.Inc()
	if h.line.Down() {
		// The frame this cell starts in goes out on a cut fiber.
		h.spWire.Drop(cell.Header.VC(), metrics.DropLink)
	}
	if err := cell.Encode(dst); err != nil {
		// Unreachable but for a bug upstream: OpenVC refused any VPI a UNI
		// header cannot carry, and the interface sets GFC and PT in range.
		panic(err)
	}
	h.srcPool.Put(cell)
}

// Fail cuts this direction's fiber: frames already in flight arrive, then
// the far end sees loss of signal. Transmitted frames are counted and lost
// until Restore.
func (h *Half) Fail() { h.line.Fail() }

// Restore brings the fiber back; the far end sees the signal return after
// the propagation delay.
func (h *Half) Restore() { h.line.Restore() }

// frameArrived parses one received frame. A frame the deframer rejects
// (overhead too damaged to trust) is a counted loss, not a crash: bit-error
// sweeps must survive whatever the fault injector produces.
func (h *Half) frameArrived(frame []byte) {
	h.cellIdx = 0
	if h.spWire != nil {
		h.wireSend, h.wireStart = h.k.Now()-h.cfg.Delay, h.notes[0]
		h.notes = h.notes[:copy(h.notes, h.notes[1:])]
		if h.del.State() != sonet.Sync {
			// Delineation is still to be found: every cell it hands over
			// lies in this frame.
			h.wireStart = h.wireSend
		}
		st := h.del.Stats()
		h.slotsAtHead = st.Cells + st.HeaderDropped
	}
	if err := h.df.PushFrame(frame); err != nil {
		h.mFrameErrors.Inc()
	}
}

// cellRecovered is the delineation sink: deliver each data cell to the
// destination interface, spread across the frame's 125 µs so the RX FIFO
// sees wire-spaced arrivals rather than a burst (the real framer emits
// cells as the bits arrive). The delineator has already checked and, if
// need be, corrected the header's HEC, so the fields are read as they are.
func (h *Half) cellRecovered(cell []byte, corrected bool) {
	c := h.dst.Pool().Get()
	c.Header.DecodeFields(cell, atm.UNI)
	copy(c.Payload[:], cell[atm.HeaderSize:])
	if c.Header.IsIdle() {
		h.dst.Pool().Put(c)
		return
	}
	if h.cellIdx == 0 && h.spWire != nil {
		if st := h.del.Stats(); st.Cells+st.HeaderDropped != h.slotsAtHead+1 {
			// Not the frame's first completed cell: it began in this frame.
			h.wireStart = h.wireSend
		}
	}
	offset := sim.Duration(h.cellIdx) * h.cellTime
	h.cellIdx++
	h.def.Post(offset, c)
}

// deliverRecovered records the wire span and hands the recovered cell to
// the destination interface. Every cell of a frame is delivered before the
// next frame arrives: a frame completes at most ceil(PayloadPer/53) cells,
// spread one cell time apart, and those fit in one frame period. Cells lost
// to frame damage or to re-delineation after a cut record nothing here, as
// no VC can be charged; a cell framed on a cut fiber recorded its drop.
func (h *Half) deliverRecovered(c *atm.Cell) {
	h.spWire.Span(c.Header.VC(), h.wireStart)
	h.wireStart = h.wireSend
	h.dst.DeliverCell(c)
}
