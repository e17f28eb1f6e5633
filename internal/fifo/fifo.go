// Package fifo models the hardware cell FIFOs that decouple the SONET
// framer's fixed cell clock from the protocol engines' variable per-cell
// processing time, and the cell queues of the rest of the network.
//
// Sizing these FIFOs is experiment E9: too shallow and a burst of
// back-to-back cells overflows while the receive engine is held off the bus
// by a host DMA; the paper's architecture places a FIFO on each side of each
// engine for exactly this reason.
//
// Ring is the bounded buffer. Queue is the one cell queue built on it: the
// adapter's TX and RX FIFOs, the SONET framer queue and the switch's output
// ports all admit, drop, time and trace their cells through it.
package fifo

import (
	"fmt"

	"repro/internal/metrics"
)

// Ring is a bounded FIFO of fixed-size items (one ATM cell each).  It is a
// power-of-two ring buffer with drop-on-overflow semantics, which is what
// the hardware does: a full receive FIFO loses the incoming cell, it does
// not exert backpressure on the fiber.
type Ring[T any] struct {
	buf   []T
	head  int // next pop
	tail  int // next push
	count int

	// Registry instruments, the ring's only counts (nil until Instrument
	// is called; nil-safe).
	mPushes    *metrics.Counter
	mPops      *metrics.Counter
	mDrops     *metrics.Counter
	mOccupancy *metrics.Gauge
}

// NewRing returns a FIFO holding at most depth items. depth must be > 0.
func NewRing[T any](depth int) *Ring[T] {
	if depth <= 0 {
		panic(fmt.Sprintf("fifo: invalid depth %d", depth))
	}
	return &Ring[T]{buf: make([]T, depth)}
}

// Instrument registers this FIFO's telemetry under the given name prefix:
// "<prefix>.pushes", "<prefix>.pops", "<prefix>.drops" counters and a
// "<prefix>.occupancy" gauge whose high watermark is the depth the FIFO
// actually needed. A nil registry leaves the FIFO un-instrumented: the nil
// instruments are no-ops on the hot path, and Stats reads zeros.
func (r *Ring[T]) Instrument(reg *metrics.Registry, prefix string) {
	r.mPushes = reg.Counter(prefix + ".pushes")
	r.mPops = reg.Counter(prefix + ".pops")
	r.mDrops = reg.Counter(prefix + ".drops")
	r.mOccupancy = reg.Gauge(prefix + ".occupancy")
}

// Len returns the current occupancy. The queues count through Queue; Len
// and Empty serve fifo's model and flag tests.
func (r *Ring[T]) Len() int { return r.count }

// Empty reports whether the FIFO holds nothing.
func (r *Ring[T]) Empty() bool { return r.count == 0 }

// Full reports whether a push would drop.
func (r *Ring[T]) Full() bool { return r.count == len(r.buf) }

// Push appends v. If the FIFO is full the item is dropped and Push reports
// false — hardware overflow semantics.
func (r *Ring[T]) Push(v T) bool {
	if r.count == len(r.buf) {
		r.mDrops.Inc()
		return false
	}
	r.buf[r.tail] = v
	r.tail++
	if r.tail == len(r.buf) {
		r.tail = 0
	}
	r.count++
	r.mPushes.Inc()
	r.mOccupancy.Set(int64(r.count))
	return true
}

// Pop removes and returns the oldest item. ok is false when empty.
func (r *Ring[T]) Pop() (v T, ok bool) {
	if r.count == 0 {
		var zero T
		return zero, false
	}
	v = r.buf[r.head]
	var zero T
	r.buf[r.head] = zero // release references
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.count--
	r.mPops.Inc()
	r.mOccupancy.Set(int64(r.count))
	return v, true
}

// Stats reports cumulative counters.
type Stats struct {
	Pushes   uint64
	Pops     uint64
	Drops    uint64
	MaxDepth int // the occupancy gauge's high watermark
}

// Stats reads the FIFO's registry instruments; an un-instrumented FIFO
// reports zeros.
func (r *Ring[T]) Stats() Stats {
	return Stats{
		Pushes:   r.mPushes.Value(),
		Pops:     r.mPops.Value(),
		Drops:    r.mDrops.Value(),
		MaxDepth: int(r.mOccupancy.Max()),
	}
}
