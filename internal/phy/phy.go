// Package phy models the fiber between two interfaces, at two granularities:
//
//   - CellLink carries decoded cells with propagation delay and per-cell
//     loss/corruption injection — the fast path the long-running experiments
//     use (a cell is the unit the network loses, so cell granularity loses
//     no fidelity for loss studies);
//   - FrameLink carries serialized SONET frames with propagation delay and
//     bit-error injection, for end-to-end runs through the real framer,
//     scrambler and delineation machinery.
package phy

import (
	"repro/internal/atm"
	"repro/internal/bufpool"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Stats counts link-level events.
type Stats struct {
	Sent      uint64
	Delivered uint64
	Lost      uint64
	Corrupted uint64
	// DroppedDown counts cells offered while the link was failed; they are
	// also included in Lost.
	DroppedDown uint64
}

// SignalConsumer is implemented by receivers that track the line signal:
// a failed link raises loss-of-signal at its delivery end (after the
// propagation delay), a restored link clears it. NIC interfaces and switch
// ports implement it to drive their fault-management state.
type SignalConsumer interface {
	// SignalChange reports the line signal at the receiver: false on loss
	// of signal (the upstream link failed), true when it returns.
	SignalChange(up bool)
}

// CellLink is a unidirectional cell pipe.
type CellLink struct {
	k     *sim.Kernel
	delay sim.Duration // the propagation delay, fixed at construction
	// LossProb is the probability an individual cell vanishes (switch
	// buffer overflow somewhere along the path).
	LossProb float64
	// CorruptProb is the probability a delivered cell has one payload
	// byte damaged (will fail the AAL checks downstream).
	CorruptProb float64

	rng   *sim.Rand
	sink  atm.CellConsumer
	pool  *atm.Pool // recycles the cells the fiber loses
	stats Stats
	down  bool
	sig   SignalConsumer // the built-with sink, if it tracks the line signal

	def *CellDeferrer // the fiber's delay line

	// Boundary mode (sharded runs): when the two ends of the link live in
	// different partitions, deliveries ride a sim.Mailbox instead of a local
	// deferred event, and the fiber's propagation delay is the partition
	// lookahead. The send side (stats, loss/corruption draws, drop trace
	// events) runs unchanged in the source partition, so the rng sequence
	// matches the serial projection draw for draw.
	mb             *sim.Mailbox
	dk             *sim.Kernel // the destination partition's kernel
	remoteFn       func(any)   // bound remote-arrival method
	remoteSignalFn func(any)
	exitSp         *trace.StageSpan // arrival span on the DEST partition's recorder

	// Flight-recorder span for the fiber transit (nil unless attached): a
	// span on delivery, which started one delay earlier as the cell left the
	// transmitter, and a drop for each cell the fiber loses.
	sp *trace.StageSpan
}

// NewCellLink builds a link delivering cells to sink after delay. Cells the
// link loses are recycled into pool, the sending kernel's cell pool. If sink
// implements SignalConsumer, it sees the link's Fail and Restore transitions,
// whatever taps AttachSink later puts in front of it.
func NewCellLink(k *sim.Kernel, delay sim.Duration, seed uint64, sink atm.CellConsumer, pool *atm.Pool) *CellLink {
	// Both are wiring bugs: core and the examples build every link from a
	// built endpoint or port and its kernel's pool, never from a spec field.
	if sink == nil {
		panic("phy: nil sink")
	}
	if pool == nil {
		panic("phy: nil cell pool")
	}
	l := &CellLink{k: k, delay: delay, rng: sim.NewRand(seed), sink: sink, pool: pool}
	l.sig, _ = sink.(SignalConsumer)
	l.def = NewCellDeferrer(k, l.deliver)
	return l
}

// deliver hands a cell to the current sink. Indirecting through this method
// (rather than binding the sink at Send time) keeps AttachSink effective for
// cells already in flight. The fiber is a FIFO of fixed delay, so the cell
// entered it exactly one delay ago.
func (l *CellLink) deliver(c *atm.Cell) {
	l.sp.Span(c.Header.VC(), l.k.Now()-l.delay)
	l.sink.DeliverCell(c)
}

// SetRecorder installs the flight-recorder span for this fiber direction
// under the given node name ("<name>/wire"). A nil recorder detaches.
func (l *CellLink) SetRecorder(rec *trace.Recorder, name string) {
	l.sp = rec.Stage(name, "wire")
}

// SetBoundary switches the link into cross-partition mode: deliveries and
// signal transitions are posted to mb (arriving in dk, the destination
// partition's kernel, after the propagation delay, which the mailbox has
// declared as lookahead) instead of a local deferred event. Each cell's
// span is recorded on arrival on rec — the DESTINATION partition's
// recorder — under the same stage name SetRecorder gives the send side's
// drops, so the merged trace equals a serial run's. rec may be nil.
func (l *CellLink) SetBoundary(mb *sim.Mailbox, dk *sim.Kernel, rec *trace.Recorder, name string) {
	if l.delay <= 0 {
		// A planner bug: core never cuts a zero-delay link between
		// partitions, and refuses a negative delay as a spec error.
		panic("phy: boundary link needs positive propagation delay (lookahead)")
	}
	l.mb, l.dk = mb, dk
	l.exitSp = rec.Stage(name, "wire")
	l.remoteFn = l.remoteDeliver
	l.remoteSignalFn = l.remoteSignal
}

// remoteDeliver runs in the destination partition's kernel at the cell's
// arrival time: the boundary counterpart of deliver.
func (l *CellLink) remoteDeliver(arg any) {
	c := arg.(*atm.Cell)
	l.exitSp.Span(c.Header.VC(), l.dk.Now()-l.delay)
	l.sink.DeliverCell(c)
}

// Pre-boxed signal values keep the rare Fail/Restore boundary path
// allocation-free too.
var sigUp, sigDown any = true, false

// remoteSignal runs in the destination partition's kernel when a Fail or
// Restore propagates across the boundary.
func (l *CellLink) remoteSignal(arg any) { l.signal(arg.(bool)) }

// Stats returns cumulative counters.
func (l *CellLink) Stats() Stats { return l.stats }

// AttachSink replaces the delivery end — the hook taps (trace.Capture.Tap,
// test collectors) use to wrap the receiving end after the link is built.
// The line signal still goes to the sink the link was built with. It
// implements atm.CellProducer, making the link a full CellConduit.
func (l *CellLink) AttachSink(sink atm.CellConsumer) {
	if sink == nil {
		panic("phy: nil sink") // a tap's bug: no spec or wire byte reaches it
	}
	l.sink = sink
}

// Sink returns the currently attached delivery end, so taps can wrap it.
func (l *CellLink) Sink() atm.CellConsumer { return l.sink }

// Fail cuts the fiber: every cell offered until Restore is lost, and the
// delivery end sees loss of signal one propagation delay later. Cells
// already in flight still arrive (they left before the cut). Idempotent.
func (l *CellLink) Fail() {
	if l.down {
		return
	}
	l.down = true
	if l.mb != nil {
		l.mb.Post(l.k.Now()+l.delay, l.k.Now(), l.remoteSignalFn, sigDown)
		return
	}
	l.k.After(l.delay, func() { l.signal(false) })
}

// Restore repairs the fiber; the delivery end sees the signal return one
// propagation delay later. Idempotent.
func (l *CellLink) Restore() {
	if !l.down {
		return
	}
	l.down = false
	if l.mb != nil {
		l.mb.Post(l.k.Now()+l.delay, l.k.Now(), l.remoteSignalFn, sigUp)
		return
	}
	l.k.After(l.delay, func() { l.signal(true) })
}

func (l *CellLink) signal(up bool) {
	if l.sig != nil {
		l.sig.SignalChange(up)
	}
}

// DeliverCell implements atm.CellConsumer: cells delivered into the link
// enter the fiber (it is the link's ingress). Equivalent to Send.
func (l *CellLink) DeliverCell(c *atm.Cell) { l.Send(c) }

// Send transmits one cell. The cell is owned by the link until delivery;
// callers must not reuse it. A lost cell is recycled into the link's pool.
func (l *CellLink) Send(c *atm.Cell) {
	l.stats.Sent++
	if l.down {
		l.stats.Lost++
		l.stats.DroppedDown++
		l.sp.Drop(c.Header.VC(), metrics.DropLink)
		l.pool.Put(c)
		return
	}
	if l.LossProb > 0 && l.rng.Bernoulli(l.LossProb) {
		l.stats.Lost++
		l.sp.Drop(c.Header.VC(), metrics.DropLink)
		l.pool.Put(c)
		return
	}
	if l.CorruptProb > 0 && l.rng.Bernoulli(l.CorruptProb) {
		l.stats.Corrupted++
		i := l.rng.Intn(len(c.Payload))
		c.Payload[i] ^= 1 << uint(l.rng.Intn(8))
	}
	l.stats.Delivered++
	if l.mb != nil {
		l.mb.Post(l.k.Now()+l.delay, l.k.Now(), l.remoteFn, c)
		return
	}
	l.def.Post(l.delay, c)
}

// FrameLink is a unidirectional SONET-frame pipe. A sender builds each frame
// in a buffer from Buffer and hands it to Send, which owns it from then on:
// the frame crosses the fiber without a copy.
type FrameLink struct {
	k *sim.Kernel
	// Delay is the propagation delay.
	Delay sim.Duration
	// BitErrProb is the probability that each frame suffers one random
	// bit error in transit.
	BitErrProb float64

	rng  *sim.Rand
	sink func(frame []byte)
	down bool
	sig  SignalConsumer // nil when nothing tracks the line signal

	pool  *bufpool.Pool // optional: recycles frame buffers after delivery
	dark  []byte        // where frames built on a cut fiber go
	ffree *frameDefer
}

// frameDefer parks one in-flight frame; pooled so a steady frame stream
// costs no per-frame closure.
type frameDefer struct {
	l    *FrameLink
	buf  []byte
	fn   func()
	next *frameDefer
}

func (r *frameDefer) fire() {
	l, buf := r.l, r.buf
	r.buf = nil
	r.next = l.ffree
	l.ffree = r
	l.sink(buf)
	// With a pool installed the frame is recycled as soon as the sink
	// returns — the sink must not retain it (the deframer copies; see
	// SetBufPool). Without a pool, Put is a no-op and the buffer is the
	// sink's to keep.
	l.pool.Put(buf)
}

// NewFrameLink builds a frame pipe delivering to sink after delay. sig, if
// not nil, sees the link's Fail and Restore transitions.
func NewFrameLink(k *sim.Kernel, delay sim.Duration, seed uint64, sink func([]byte), sig SignalConsumer) *FrameLink {
	if sink == nil {
		panic("phy: nil sink") // a wiring bug: sonetlink passes its own method
	}
	return &FrameLink{k: k, Delay: delay, rng: sim.NewRand(seed), sink: sink, sig: sig}
}

// SetBufPool installs a buffer pool for the frame buffers. With a pool,
// Buffer draws each frame's buffer from it and the link recycles it the
// moment the sink returns — so the sink must consume the frame during the
// call (the deframer copies into its own scratch). Without a pool, every
// Buffer is a fresh allocation that the sink owns outright.
func (l *FrameLink) SetBufPool(p *bufpool.Pool) { l.pool = p }

// Buffer returns an n-byte buffer, of unspecified contents, for the sender
// to build its next frame in and hand to Send. While the fiber is cut the
// frame goes nowhere, so it is built in the link's own scratch buffer and
// the pool is left alone.
func (l *FrameLink) Buffer(n int) []byte {
	if l.down {
		if cap(l.dark) < n {
			l.dark = make([]byte, n)
		}
		return l.dark[:n]
	}
	return l.pool.Get(n)
}

// Down reports whether the link is currently failed.
func (l *FrameLink) Down() bool { return l.down }

// Fail cuts the fiber: frames offered until Restore are lost and the
// delivery end sees loss of signal one propagation delay later. Idempotent.
func (l *FrameLink) Fail() {
	if l.down {
		return
	}
	l.down = true
	l.k.After(l.Delay, func() { l.signal(false) })
}

// Restore repairs the fiber; the signal returns one propagation delay
// later. Idempotent.
func (l *FrameLink) Restore() {
	if !l.down {
		return
	}
	l.down = false
	l.k.After(l.Delay, func() { l.signal(true) })
}

func (l *FrameLink) signal(up bool) {
	if l.sig != nil {
		l.sig.SignalChange(up)
	}
}

// Send transmits one serialized frame, built in a buffer from Buffer, and
// takes ownership of it: the caller must not touch it again. A bit error
// lands in the frame itself.
func (l *FrameLink) Send(frame []byte) {
	if l.down {
		return
	}
	if l.BitErrProb > 0 && l.rng.Bernoulli(l.BitErrProb) {
		i := l.rng.Intn(len(frame))
		frame[i] ^= 1 << uint(l.rng.Intn(8))
	}
	r := l.ffree
	if r == nil {
		r = &frameDefer{l: l}
		r.fn = r.fire
	} else {
		l.ffree = r.next
		r.next = nil
	}
	r.buf = frame
	l.k.PostAfter(l.Delay, r.fn)
}

// PropDelay returns the propagation delay for a fiber of the given length in
// kilometres (5 µs/km, the standard figure for silica).
func PropDelay(km float64) sim.Duration {
	return sim.Duration(km * 5000)
}
