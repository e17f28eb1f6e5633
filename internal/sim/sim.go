// Package sim provides the discrete-event simulation kernel used by every
// hardware and protocol model in this repository.
//
// The kernel is deliberately small: a monotonically increasing simulated
// clock, a two-tier event queue with deterministic tie-breaking, and a
// handful of synchronization primitives (resources, queues, signals) built on
// top of it.  All simulated time is carried as sim.Time, an int64 count of
// simulated nanoseconds, so one simulated second is 1e9 and a 155.52 Mb/s
// cell time (2.726 µs) is 2726 ticks with sub-nanosecond residue handled by
// the units package.
//
// # Event queue
//
// The queue is a timing wheel (bucketed calendar) fronting a binary-heap
// overflow tier.  Per-cell events arrive at a fixed cadence — cell times of
// 680/2726 ns, DMA bursts of a few hundred ns, 125 µs SONET frames — which
// is the ideal case for a wheel: scheduling and dispatch are O(1) instead of
// the O(log n) heap churn the original kernel paid on every cell.  Events
// beyond the wheel horizon (~262 µs) go to the heap and are dispatched from
// there.  The heap holds timers (retransmission timeouts, run deadlines) and
// one event per long fiber, not every cell in flight: a fiber is a FIFO delay
// line (phy.CellDeferrer) that queues only its head cell, under a dispatch
// key reserved when the cell entered it (ReserveSeq, PostBoundary).  The two
// tiers are merged at dispatch by comparing (time, seq), so
// the observable execution order is exactly the order the single heap
// produced: strictly non-decreasing time, ties broken by schedule order.
// NewHeapKernel builds a kernel that bypasses the wheel entirely — the
// pre-wheel scheduler, retained for golden equivalence tests.
//
// # Allocation discipline
//
// At and After return a *Event handle the caller may Cancel, Reschedule, or
// retain indefinitely, so those events cannot be recycled and cost one
// allocation each.  Post and PostAfter are the fire-and-forget fast path:
// no handle is returned, and the kernel runs the event through an internal
// free list, so steady-state scheduling is allocation-free.  Every per-cell
// path in the datapath schedules through Post.
//
// The kernel is single-goroutine: models schedule callbacks rather than
// blocking.  This keeps runs deterministic and fast (no channel hand-offs on
// the per-cell hot path) and mirrors how the hardware being modelled is
// clocked.
//
// # Parallel execution
//
// A Group (parallel.go) runs several kernels — one partition of the topology
// each — in lock-step windows bounded by the minimum cross-partition link
// delay (conservative synchronization with link-delay lookahead).  Each
// kernel stays single-goroutine; cross-partition traffic rides Mailboxes
// that are appended during a window and drained at the barrier between
// windows.  Events carry a full dispatch key (at, pt, lane, seq) — pt is the
// virtual time the event was scheduled, lane the scheduling partition's rank
// — so a merged parallel run dispatches in an order a serial run would also
// produce; the serial kernel remains the golden reference.
package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// Time is a point in simulated time, in nanoseconds since the start of the
// run. Negative values are invalid except for the sentinel Never.
type Time int64

// Never is a sentinel Time that compares after every reachable time.
const Never Time = math.MaxInt64

// Duration is a span of simulated time in nanoseconds.
type Duration = Time

// Common durations, mirroring time.Duration's constants but in simulated
// nanoseconds.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// String renders the time in an engineering-friendly unit.
func (t Time) String() string {
	switch {
	case t == Never:
		return "never"
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.6fs", float64(t)/float64(Second))
	}
}

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Timing-wheel geometry: 1024 slots of 256 ns cover a ~262 µs horizon, which
// holds every cadenced event the datapath schedules (cell times, DMA bursts,
// engine routines, SONET frame ticks, 10 µs fiber delays). Longer timers —
// retransmission timeouts, run deadlines — overflow to the heap tier.
const (
	wheelShift = 8 // slot granularity: 256 ns
	wheelSlots = 1024
	wheelMask  = wheelSlots - 1
)

// Event is a scheduled callback. The zero Event is inert. Events returned by
// At/After stay valid after they fire (Reschedule re-queues them); events
// scheduled with Post/PostAfter are kernel-owned and recycled at dispatch.
type Event struct {
	at   Time
	pt   Time   // virtual time the event was scheduled (post time)
	seq  uint64 // insertion order; breaks ties deterministically
	lane int32  // scheduling partition rank; 0 on serial kernels
	fn   func()

	// Boundary events (PostBoundary) carry their payload out-of-line so a
	// cross-partition cell hand-off is closure-free: afn(arg) runs instead
	// of fn. A pointer in arg does not allocate.
	afn func(any)
	arg any

	// Queue position. Exactly one of these is nonzero while queued:
	// slot1 is 1+wheel-slot when in the wheel, hidx1 is 1+heap-index when
	// in the overflow heap. The +1 bias keeps the zero Event inert.
	slot1      int32
	hidx1      int32
	prev, next *Event // wheel slot list links; next doubles as free-list link
	pooled     bool   // from the Post free list; recycled at dispatch
}

// eventLess orders two events by the full dispatch key (at, pt, lane, seq).
// On a serial kernel pt is nondecreasing in seq (the clock is monotone) and
// lane is constant, so this collapses to the original (at, seq) order. In a
// parallel run the extended key lets boundary events — whose seq comes from
// a different kernel — take a deterministic position among local events:
// first by when they were scheduled in virtual time, then by partition rank.
func eventLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.pt != b.pt {
		return a.pt < b.pt
	}
	if a.lane != b.lane {
		return a.lane < b.lane
	}
	return a.seq < b.seq
}

// At reports the time the event is scheduled for.
func (e *Event) At() Time { return e.at }

// Scheduled reports whether the event is currently in the queue.
func (e *Event) Scheduled() bool { return e != nil && (e.slot1 != 0 || e.hidx1 != 0) }

// Kernel is a discrete-event simulator instance. The zero value is not
// usable; call NewKernel (or NewHeapKernel for the heap-only scheduler).
type Kernel struct {
	now     Time
	seq     uint64
	lane    int32 // partition rank stamped on every scheduled event
	stopped bool

	// Wheel tier: doubly-linked per-slot lists kept sorted by (at, seq),
	// with an occupancy bitmap so the next busy slot is a few word scans.
	head, tail [wheelSlots]*Event
	occ        [wheelSlots / 64]uint64
	wheelCount int

	// Overflow tier: the original binary heap, ordered by (at, seq).
	overflow eventHeap

	// Free list of recycled Post events, chained through next.
	free *Event

	// heapOnly disables the wheel: every event runs through the overflow
	// heap, reproducing the pre-wheel scheduler exactly.
	heapOnly bool

	// Stats
	dispatched uint64
}

// NewKernel returns a kernel with the clock at zero and an empty queue.
func NewKernel() *Kernel {
	return &Kernel{}
}

// NewHeapKernel returns a kernel that schedules every event through the
// binary heap, bypassing the timing wheel. This is the pre-wheel scheduler,
// kept only as the reference the heap/wheel golden tests compare against:
// both kernels dispatch in identical (time, seq) order.
func NewHeapKernel() *Kernel {
	return &Kernel{heapOnly: true}
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// SetLane tags every event this kernel subsequently schedules with lane, the
// partition rank used as a deterministic cross-partition tie-breaker in the
// dispatch key. Serial kernels keep the zero lane; Group assigns one rank
// per partition at construction.
func (k *Kernel) SetLane(lane int32) { k.lane = lane }

// Lane reports the partition rank stamped on this kernel's events.
func (k *Kernel) Lane() int32 { return k.lane }

// Dispatched reports how many events have been executed so far.
func (k *Kernel) Dispatched() uint64 { return k.dispatched }

// Pending reports how many events are queued.
func (k *Kernel) Pending() int { return k.wheelCount + len(k.overflow) }

// At schedules fn to run at absolute time at, returning a handle the caller
// may Cancel or Reschedule. Scheduling in the past panics: a model that does
// so is broken, and silently clamping would hide the bug. Fire-and-forget
// callers should prefer Post, which recycles the event.
func (k *Kernel) At(at Time, fn func()) *Event {
	if at < k.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, k.now))
	}
	if fn == nil {
		panic("sim: schedule nil callback")
	}
	e := &Event{at: at, pt: k.now, lane: k.lane, seq: k.seq, fn: fn}
	k.seq++
	k.insert(e)
	return e
}

// After schedules fn to run d nanoseconds from now.
func (k *Kernel) After(d Duration, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", int64(d)))
	}
	return k.At(k.now+d, fn)
}

// Post schedules fn to run at absolute time at, fire-and-forget: no handle
// is returned, so the event cannot be cancelled, and the kernel recycles it
// through a free list — steady-state Post/dispatch is allocation-free. This
// is the per-cell hot path; ordering is identical to At (one seq per call).
func (k *Kernel) Post(at Time, fn func()) {
	if at < k.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, k.now))
	}
	if fn == nil {
		panic("sim: schedule nil callback")
	}
	e := k.free
	if e == nil {
		e = &Event{}
	} else {
		k.free = e.next
		e.next = nil
	}
	e.at, e.pt, e.lane, e.seq, e.fn, e.pooled = at, k.now, k.lane, k.seq, fn, true
	k.seq++
	k.insert(e)
}

// ReserveSeq draws the sequence number an event scheduled now would get,
// without queuing anything: it consumes k.seq exactly as Post does, so no
// other event's key changes. The caller queues the event later, under the
// key (at, now, lane, seq), with PostBoundary. Mailbox.Post reserves keys
// for cross-partition cells this way, and phy.CellDeferrer for the cells it
// holds back in its delay line.
func (k *Kernel) ReserveSeq() uint64 {
	seq := k.seq
	k.seq++
	return seq
}

// PostBoundary schedules an event under an explicit dispatch key: pt is the
// virtual time the event was scheduled, lane the scheduling partition's
// rank, seq a sequence number reserved with ReserveSeq on that partition's
// kernel. It is how a key reserved earlier — by a cross-partition Mailbox or
// a delay line — is queued. The callback is the closure-free afn(arg) pair
// so cell hand-offs do not allocate; like Post, the event is recycled at
// dispatch.
func (k *Kernel) PostBoundary(at, pt Time, lane int32, seq uint64, afn func(any), arg any) {
	if at < k.now {
		panic(fmt.Sprintf("sim: boundary event at %v before now %v (lookahead violated)", at, k.now))
	}
	if afn == nil {
		panic("sim: schedule nil boundary callback")
	}
	e := k.free
	if e == nil {
		e = &Event{}
	} else {
		k.free = e.next
		e.next = nil
	}
	e.at, e.pt, e.lane, e.seq = at, pt, lane, seq
	e.fn, e.afn, e.arg, e.pooled = nil, afn, arg, true
	k.insert(e)
}

// PostAfter schedules fn to run d nanoseconds from now, fire-and-forget.
func (k *Kernel) PostAfter(d Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", int64(d)))
	}
	k.Post(k.now+d, fn)
}

// insert places e in the wheel when its slot falls inside the horizon, in
// the overflow heap otherwise.
func (k *Kernel) insert(e *Event) {
	if !k.heapOnly && (e.at>>wheelShift)-(k.now>>wheelShift) < wheelSlots {
		k.wheelInsert(e)
		return
	}
	k.overflow.push(e)
}

// wheelInsert links e into its slot's list, kept sorted by the full dispatch
// key. A locally scheduled event carries the largest (pt, seq) in its lane,
// so among equal times it lands last and the backward scan only ever skips
// later-time events; events queued under a reserved key (PostBoundary) may
// scan past same-time locals to take their key-ordered position.
func (k *Kernel) wheelInsert(e *Event) {
	s := int((e.at >> wheelShift) & wheelMask)
	p := k.tail[s]
	for p != nil && eventLess(e, p) {
		p = p.prev
	}
	if p == nil { // new head
		e.next = k.head[s]
		if e.next != nil {
			e.next.prev = e
		} else {
			k.tail[s] = e
		}
		k.head[s] = e
	} else {
		e.prev = p
		e.next = p.next
		if p.next != nil {
			p.next.prev = e
		} else {
			k.tail[s] = e
		}
		p.next = e
	}
	e.slot1 = int32(s + 1)
	k.occ[s>>6] |= 1 << uint(s&63)
	k.wheelCount++
}

// wheelUnlink removes e from its slot list.
func (k *Kernel) wheelUnlink(e *Event) {
	s := int(e.slot1) - 1
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		k.head[s] = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		k.tail[s] = e.prev
	}
	e.prev, e.next = nil, nil
	e.slot1 = 0
	if k.head[s] == nil {
		k.occ[s>>6] &^= 1 << uint(s&63)
	}
	k.wheelCount--
}

// peekWheel returns the earliest wheel event without removing it. All wheel
// events live within one horizon of now, so a circular bitmap scan starting
// at now's slot visits slots in increasing-time order.
func (k *Kernel) peekWheel() *Event {
	if k.wheelCount == 0 {
		return nil
	}
	base := int((k.now >> wheelShift) & wheelMask)
	w, b := base>>6, uint(base&63)
	if m := k.occ[w] &^ (1<<b - 1); m != 0 {
		s := w<<6 + bits.TrailingZeros64(m)
		return k.head[s]
	}
	for i := 1; i < len(k.occ); i++ {
		wi := (w + i) & (len(k.occ) - 1)
		if m := k.occ[wi]; m != 0 {
			s := wi<<6 + bits.TrailingZeros64(m)
			return k.head[s]
		}
	}
	if m := k.occ[w] & (1<<b - 1); m != 0 {
		s := w<<6 + bits.TrailingZeros64(m)
		return k.head[s]
	}
	return nil
}

// peekNext returns the next event to dispatch — the dispatch-key minimum
// across both tiers — without removing it.
func (k *Kernel) peekNext() *Event {
	we := k.peekWheel()
	if len(k.overflow) == 0 {
		return we
	}
	he := k.overflow[0]
	if we == nil || eventLess(he, we) {
		return he
	}
	return we
}

// remove detaches a queued event from whichever tier holds it.
func (k *Kernel) remove(e *Event) {
	switch {
	case e.slot1 != 0:
		k.wheelUnlink(e)
	case e.hidx1 != 0:
		k.overflow.remove(int(e.hidx1) - 1)
	}
}

// Cancel removes a previously scheduled event. Cancelling a nil, already-run
// or already-cancelled event is a no-op.
func (k *Kernel) Cancel(e *Event) {
	if e == nil || !e.Scheduled() {
		return
	}
	k.remove(e)
}

// Reschedule moves a pending event to a new absolute time, or schedules it
// afresh if it already fired. The event may migrate between the wheel and
// the overflow tier. Rescheduling a nil event panics with a diagnostic (use
// At to schedule afresh when no event exists yet).
func (k *Kernel) Reschedule(e *Event, at Time) {
	if e == nil {
		panic("sim: Reschedule of nil event (use At to schedule afresh)")
	}
	if at < k.now {
		panic(fmt.Sprintf("sim: reschedule at %v before now %v", at, k.now))
	}
	if e.Scheduled() {
		k.remove(e)
	}
	e.at = at
	e.pt = k.now
	e.lane = k.lane
	e.seq = k.seq
	k.seq++
	k.insert(e)
}

// Stop makes Run return after the current event completes.
func (k *Kernel) Stop() { k.stopped = true }

// dispatch removes e from the queue, advances the clock, and runs it.
func (k *Kernel) dispatch(e *Event) {
	k.remove(e)
	if e.at < k.now {
		panic("sim: event queue corrupted (time went backwards)")
	}
	k.now = e.at
	k.dispatched++
	fn, afn, arg := e.fn, e.afn, e.arg
	if e.pooled {
		e.fn, e.afn, e.arg = nil, nil, nil
		e.next = k.free
		k.free = e
	}
	if fn != nil {
		fn()
	} else {
		afn(arg)
	}
}

// Step executes the single next event, if any, advancing the clock to its
// timestamp. It reports whether an event was executed.
func (k *Kernel) Step() bool {
	e := k.peekNext()
	if e == nil {
		return false
	}
	k.dispatch(e)
	return true
}

// Run executes events until the queue drains or Stop is called. It returns
// the final simulated time.
func (k *Kernel) Run() Time {
	k.stopped = false
	for !k.stopped && k.Step() {
	}
	return k.now
}

// RunUntil executes events with timestamps <= deadline, then sets the clock
// to the deadline (if the deadline is later than the last event). Events
// scheduled beyond the deadline remain queued.
func (k *Kernel) RunUntil(deadline Time) Time {
	k.stopped = false
	for !k.stopped {
		e := k.peekNext()
		if e == nil || e.at > deadline {
			break
		}
		k.dispatch(e)
	}
	if k.now < deadline {
		k.now = deadline
	}
	return k.now
}

// RunFor advances the simulation by d nanoseconds of simulated time.
func (k *Kernel) RunFor(d Duration) Time { return k.RunUntil(k.now + d) }

// RunBefore executes every queued event with timestamp strictly before
// limit and reports how many it dispatched. Unlike RunUntil, the clock is
// left at the last dispatched event — it does not jump to limit — so a
// boundary event inserted afterwards at any time >= the old limit is still
// in this kernel's future. This is the per-window body of a Group run.
func (k *Kernel) RunBefore(limit Time) int {
	n := 0
	for {
		e := k.peekNext()
		if e == nil || e.at >= limit {
			return n
		}
		k.dispatch(e)
		n++
	}
}

// NextEventTime reports the timestamp of the next queued event, or Never
// when the queue is empty.
func (k *Kernel) NextEventTime() Time {
	e := k.peekNext()
	if e == nil {
		return Never
	}
	return e.at
}

// eventHeap is the overflow tier: a binary heap ordered by (at, seq). It is
// the original kernel's queue, inlined (rather than container/heap) so push
// and pop stay free of interface conversions.
type eventHeap []*Event

func (h eventHeap) less(i, j int) bool { return eventLess(h[i], h[j]) }

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].hidx1 = int32(i + 1)
	h[j].hidx1 = int32(j + 1)
}

func (h *eventHeap) push(e *Event) {
	*h = append(*h, e)
	e.hidx1 = int32(len(*h))
	h.up(len(*h) - 1)
}

// remove deletes the element at index i.
func (h *eventHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	if i != n {
		old.swap(i, n)
	}
	old[n].hidx1 = 0
	old[n] = nil
	*h = old[:n]
	if i != n {
		if !h.down(i) {
			h.up(i)
		}
	}
}

func (h eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h eventHeap) down(i int) bool {
	start := i
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if r := l + 1; r < n && h.less(r, l) {
			j = r
		}
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		i = j
	}
	return i > start
}
