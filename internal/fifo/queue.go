package fifo

import (
	"repro/internal/atm"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Queue is a cell queue: one Ring per service class, drained in strict
// priority, with the two moves every cell queue of the model makes.
//
//   - Admit pushes a cell and stamps it with the time it entered. A cell
//     its class ring refuses is dropped as the queue's overflow cause.
//   - Leave pops the oldest cell of the first class that holds one,
//     observes its residency (now − Stamp) and records its whole span on
//     Stage.
//
// Drop is the one way a queue loses a cell: the cause is counted in the
// cell's per-VC row and on Stage, and the cell goes back to its pool. The
// owner keeps its own discipline: what clocks Leave (a cell slot, an engine
// routine, a port drain, a frame), and any admission policy it applies
// before Admit (a switch port's thresholds and shared buffer budget).
type Queue struct {
	// Stage is the queue's flight-recorder stage: a span per leaving cell
	// and a drop per lost one (nil when nothing records).
	Stage *trace.StageSpan
	// Residency, when set, takes each leaving cell's time in the queue.
	Residency *metrics.Histogram
	// Occupancy, when set, follows the cells queued across every class.
	Occupancy *metrics.Gauge

	k        *sim.Kernel
	rings    []Ring[*atm.Cell] // by class; class 0 leaves first
	n        int               // cells queued across every class
	depth    int
	pool     *atm.Pool
	reg      *metrics.Registry
	overflow metrics.DropCause
}

// NewQueue returns a queue of classes rings, each depth cells deep, on
// kernel k. A cell it drops is counted under its VC in reg and goes back to
// pool; a cell its class ring refuses counts as overflow.
func NewQueue(k *sim.Kernel, classes, depth int, pool *atm.Pool, reg *metrics.Registry, overflow metrics.DropCause) *Queue {
	q := &Queue{k: k, rings: make([]Ring[*atm.Cell], classes), depth: depth,
		pool: pool, reg: reg, overflow: overflow}
	for c := range q.rings {
		q.rings[c] = *NewRing[*atm.Cell](depth)
	}
	return q
}

// Ring returns class c's ring, for its registry instruments (Instrument,
// Stats).
func (q *Queue) Ring(c int) *Ring[*atm.Cell] { return &q.rings[c] }

// Len returns the cells queued across every class.
func (q *Queue) Len() int { return q.n }

// Empty reports whether the queue holds nothing.
func (q *Queue) Empty() bool { return q.n == 0 }

// Full reports whether the queue holds depth cells: a one-class queue then
// refuses its next cell, and a queue of classes has spent the buffer its
// rings share.
func (q *Queue) Full() bool { return q.n >= q.depth }

// Admit queues c in class and stamps it with the time it entered. If the
// class ring is full, c is dropped as overflow and Admit reports false.
func (q *Queue) Admit(c *atm.Cell, class int) bool {
	if !q.rings[class].Push(c) {
		q.Drop(c, q.overflow)
		return false
	}
	c.Stamp = q.k.Now()
	q.n++
	q.Occupancy.Set(int64(q.n))
	return true
}

// Leave removes the oldest cell of the first class that holds one, times
// its residency from its Stamp and records its span. ok is false when the
// queue is empty.
func (q *Queue) Leave() (c *atm.Cell, ok bool) {
	for i := range q.rings {
		if c, ok = q.rings[i].Pop(); ok {
			q.n--
			q.Occupancy.Set(int64(q.n))
			// Observe does not inline, so testing for the optional
			// histogram here spares the queues without one a call.
			if q.Residency != nil {
				q.Residency.Observe(q.k.Now() - c.Stamp)
			}
			q.Stage.Span(c.Header.VC(), c.Stamp)
			return c, true
		}
	}
	return nil, false
}

// Drop discards c, which the queue never admitted, under cause: the cell's
// per-VC row and the stage count the loss, and c goes back to the pool.
func (q *Queue) Drop(c *atm.Cell, cause metrics.DropCause) {
	h := &c.Header
	q.reg.VC(h.VPI, h.VCI).Drop(cause)
	q.Stage.Drop(h.VC(), cause)
	q.pool.Put(c)
}
