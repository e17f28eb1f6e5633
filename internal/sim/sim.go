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
// Events dispatch in the order of their full key (at, pt, lane, seq): the
// time they run at, the virtual time they were scheduled, the scheduling
// partition's rank and a per-kernel sequence number (see Parallel execution
// below). On a serial kernel pt follows seq and lane is constant, so the
// order is strictly non-decreasing time, ties broken by schedule order.
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
// key reserved when the cell entered it (ReserveSeq, PostBoundary).  Each
// dispatch takes the earlier of the first busy wheel slot's head and the
// heap top under the full key, so the two tiers together dispatch exactly
// the order one heap would. NewHeapKernel builds a kernel whose wheel spans
// nothing, so every event runs through the heap — the pre-wheel scheduler,
// retained for golden equivalence tests.
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
//
// An Event is 64 bytes, one cache line: a dispatch touches only the event
// it runs, and an insert only the slot's tail (or, for an out-of-order key,
// the events it walks past).
type Event struct {
	at  Time
	pt  Time   // virtual time the event was scheduled (post time)
	seq uint64 // insertion order; breaks ties deterministically

	// The callback is afn(arg); when afn is nil, arg holds a func() that
	// runs instead. Boundary events (PostBoundary) use the pair so a
	// cross-partition cell hand-off is closure-free. Neither a pointer nor a
	// func value stored in arg allocates.
	afn func(any)
	arg any

	next *Event // wheel slot list link; doubles as the free-list link

	// Queue position: 1+slot while in the wheel, -(1+index) while in the
	// overflow heap, 0 when not queued. The bias keeps the zero Event inert.
	pos    int32
	lane   int16 // scheduling partition rank; 0 on serial kernels
	pooled bool  // from the Post free list; recycled at dispatch
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

// Scheduled reports whether the event is currently in the queue.
func (e *Event) Scheduled() bool { return e != nil && e.pos != 0 }

// slot is one wheel bucket: a singly-linked list of events sorted by the
// dispatch key, with its tail beside its head so an append touches one
// cache line of the kernel.
type slot struct{ head, tail *Event }

// Kernel is a discrete-event simulator instance. Build one with NewKernel
// (or NewHeapKernel for the heap-only scheduler).
type Kernel struct {
	// Hot scalars, read or written on every schedule and dispatch.
	now        Time
	seq        uint64
	dispatched uint64
	free       *Event // recycled Post events, chained through next
	wheelCount int
	overflow   eventHeap // the tier beyond the wheel horizon

	// span is the wheel's reach in slots: an event goes to the wheel when
	// its slot lies fewer than span slots past now's. NewKernel sets
	// wheelSlots; NewHeapKernel leaves 0, so everything goes to the heap.
	span Time
	lane int16 // partition rank stamped on every scheduled event

	// Wheel tier: per-slot lists with an occupancy bitmap, so the next busy
	// slot is a few word scans.
	occ   [wheelSlots / 64]uint64
	slots [wheelSlots]slot
}

// NewKernel returns a kernel with the clock at zero and an empty queue.
func NewKernel() *Kernel {
	return &Kernel{span: wheelSlots}
}

// NewHeapKernel returns a kernel that schedules every event through the
// binary heap, bypassing the timing wheel. This is the pre-wheel scheduler,
// kept only as the reference the heap/wheel golden tests compare against:
// both kernels dispatch in identical (at, pt, lane, seq) order.
func NewHeapKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// SetLane tags every event this kernel subsequently schedules with lane, the
// partition rank used as a deterministic cross-partition tie-breaker in the
// dispatch key. Serial kernels keep the zero lane; Group assigns one rank
// per partition at construction. A lane must fit in 16 bits; callers that
// take a partition count from input check it first (core.NewNetwork does),
// so an out-of-range lane is a programming error and panics.
func (k *Kernel) SetLane(lane int32) { k.lane = lane16(lane) }

// Lane reports the partition rank stamped on this kernel's events.
func (k *Kernel) Lane() int32 { return int32(k.lane) }

// lane16 narrows a lane to the Event field's width.
func lane16(lane int32) int16 {
	if lane < math.MinInt16 || lane > math.MaxInt16 {
		panic(fmt.Sprintf("sim: lane %d does not fit in 16 bits", lane))
	}
	return int16(lane)
}

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
	e := &Event{at: at, pt: k.now, lane: k.lane, seq: k.seq, arg: fn}
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
	e := k.newPooled()
	e.at, e.pt, e.lane, e.seq, e.arg = at, k.now, k.lane, k.seq, fn
	k.seq++
	k.insert(e)
}

// newPooled takes an event from the free list, or allocates one. Its
// callback fields are already cleared (dispatch clears them on recycling).
func (k *Kernel) newPooled() *Event {
	e := k.free
	if e == nil {
		return &Event{pooled: true}
	}
	k.free = e.next
	return e
}

// ReserveSeq draws the sequence number an event scheduled now would get,
// without queuing anything: it consumes k.seq exactly as Post does, so no
// other event's key changes. The caller queues the event later, under the
// key (at, now, lane, seq), with PostBoundary. Mailbox.Post reserves keys
// for cross-partition cells this way, phy.CellDeferrer for the cells it
// holds back in its delay line, and Resource for each completion, whose
// event carries the completion's callback as its argument.
func (k *Kernel) ReserveSeq() uint64 {
	seq := k.seq
	k.seq++
	return seq
}

// PostBoundary schedules an event under an explicit dispatch key: pt is the
// virtual time the event was scheduled, lane the scheduling partition's
// rank, seq a sequence number reserved with ReserveSeq on that partition's
// kernel. It is how any event under a reserved key is queued: a
// cross-partition Mailbox's, a delay line's or a Resource completion's. The
// callback is the closure-free afn(arg) pair so hand-offs do not allocate;
// like Post, the event is recycled at dispatch.
func (k *Kernel) PostBoundary(at, pt Time, lane int32, seq uint64, afn func(any), arg any) {
	if at < k.now {
		panic(fmt.Sprintf("sim: boundary event at %v before now %v (lookahead violated)", at, k.now))
	}
	if afn == nil {
		panic("sim: schedule nil boundary callback")
	}
	e := k.newPooled()
	e.at, e.pt, e.lane, e.seq, e.afn, e.arg = at, pt, lane16(lane), seq, afn, arg
	k.insert(e)
}

// PostAfter schedules fn to run d nanoseconds from now, fire-and-forget.
func (k *Kernel) PostAfter(d Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", int64(d)))
	}
	k.Post(k.now+d, fn)
}

// insert queues e: in the overflow heap when its slot lies span or more
// slots past now's, in its wheel slot otherwise. A slot's list is sorted by
// the full dispatch key. A locally scheduled event carries the largest
// (pt, seq) in its lane, so it goes at the tail unless the tail runs later;
// only then does the insert walk from the head to e's ordered place. Events
// queued under a reserved key (PostBoundary) may walk past same-time locals
// this way.
func (k *Kernel) insert(e *Event) {
	if (e.at>>wheelShift)-(k.now>>wheelShift) >= k.span {
		k.overflow.push(e)
		return
	}
	s := int((e.at >> wheelShift) & wheelMask)
	sl := &k.slots[s]
	e.pos = int32(s + 1)
	k.wheelCount++
	switch t := sl.tail; {
	case t == nil:
		e.next = nil
		sl.head, sl.tail = e, e
		k.occ[s>>6] |= 1 << uint(s&63)
	case !eventLess(e, t):
		e.next = nil
		t.next = e
		sl.tail = e
	case eventLess(e, sl.head):
		e.next = sl.head
		sl.head = e
	default:
		// head <= e < tail: the walk stops before running off the list.
		p := sl.head
		for !eventLess(e, p.next) {
			p = p.next
		}
		e.next = p.next
		p.next = e
	}
}

// wheelUnlink removes e from its slot list, walking from the head to its
// predecessor. Only Cancel and Reschedule unlink; dispatch pops heads.
func (k *Kernel) wheelUnlink(e *Event) {
	s := int(e.pos) - 1
	sl := &k.slots[s]
	if sl.head == e {
		sl.head = e.next
		if sl.head == nil {
			sl.tail = nil
			k.occ[s>>6] &^= 1 << uint(s&63)
		}
	} else {
		p := sl.head
		for p.next != e {
			p = p.next
		}
		p.next = e.next
		if sl.tail == e {
			sl.tail = p
		}
	}
	e.next = nil
	e.pos = 0
	k.wheelCount--
}

// firstBusy returns the earliest busy wheel slot; the wheel must not be
// empty. All wheel events live within one horizon of now, so a circular
// bitmap scan starting at now's slot visits slots in increasing-time order.
func (k *Kernel) firstBusy() int {
	base := int((k.now >> wheelShift) & wheelMask)
	w, b := base>>6, uint(base&63)
	if m := k.occ[w] &^ (1<<b - 1); m != 0 {
		return w<<6 + bits.TrailingZeros64(m)
	}
	for i := 1; i < len(k.occ); i++ {
		wi := (w + i) & (len(k.occ) - 1)
		if m := k.occ[wi]; m != 0 {
			return wi<<6 + bits.TrailingZeros64(m)
		}
	}
	return w<<6 + bits.TrailingZeros64(k.occ[w]&(1<<b-1))
}

// popBy removes and returns the next event to dispatch — the dispatch-key
// minimum across both tiers — when it is due at or before last, and returns
// nil otherwise.
func (k *Kernel) popBy(last Time) *Event {
	s := -1
	if k.wheelCount != 0 {
		s = k.firstBusy()
	}
	if len(k.overflow) != 0 {
		if h := k.overflow[0]; s < 0 || eventLess(h, k.slots[s].head) {
			if h.at > last {
				return nil
			}
			k.overflow.remove(0)
			return h
		}
	}
	if s < 0 {
		return nil
	}
	sl := &k.slots[s]
	e := sl.head
	if e.at > last {
		return nil
	}
	sl.head = e.next
	if sl.head == nil {
		sl.tail = nil
		k.occ[s>>6] &^= 1 << uint(s&63)
	}
	e.next = nil
	e.pos = 0
	k.wheelCount--
	return e
}

// remove detaches a queued event from whichever tier holds it.
func (k *Kernel) remove(e *Event) {
	if e.pos > 0 {
		k.wheelUnlink(e)
	} else {
		k.overflow.remove(int(-e.pos) - 1)
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

// dispatch advances the clock to e, which popBy has just removed from the
// queue, recycles e if the kernel owns it, and runs it.
func (k *Kernel) dispatch(e *Event) {
	if e.at < k.now {
		panic("sim: event queue corrupted (time went backwards)")
	}
	k.now = e.at
	k.dispatched++
	afn, arg := e.afn, e.arg
	if e.pooled {
		e.afn, e.arg = nil, nil
		e.next = k.free
		k.free = e
	}
	if afn == nil {
		arg.(func())()
	} else {
		afn(arg)
	}
}

// Step executes the single next event, if any, advancing the clock to its
// timestamp. It reports whether an event was executed.
func (k *Kernel) Step() bool {
	e := k.popBy(Never)
	if e == nil {
		return false
	}
	k.dispatch(e)
	return true
}

// Run executes events until the queue drains. It returns the final
// simulated time.
func (k *Kernel) Run() Time {
	for k.Step() {
	}
	return k.now
}

// RunUntil executes events with timestamps <= deadline, then sets the clock
// to the deadline (if the deadline is later than the last event). Events
// scheduled beyond the deadline remain queued.
func (k *Kernel) RunUntil(deadline Time) Time {
	for {
		e := k.popBy(deadline)
		if e == nil {
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
	if limit <= k.now {
		return 0 // every queued event is at or after now
	}
	n := 0
	for {
		e := k.popBy(limit - 1)
		if e == nil {
			return n
		}
		k.dispatch(e)
		n++
	}
}

// NextEventTime reports the timestamp of the next queued event, or Never
// when the queue is empty.
func (k *Kernel) NextEventTime() Time {
	t := Never
	if k.wheelCount != 0 {
		t = k.slots[k.firstBusy()].head.at
	}
	if len(k.overflow) != 0 && k.overflow[0].at < t {
		t = k.overflow[0].at
	}
	return t
}

// eventHeap is the overflow tier: a binary heap ordered by the full dispatch
// key (at, pt, lane, seq). It is the original kernel's queue, inlined
// (rather than container/heap) so push and pop stay free of interface
// conversions.
type eventHeap []*Event

func (h eventHeap) less(i, j int) bool { return eventLess(h[i], h[j]) }

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos = -int32(i + 1)
	h[j].pos = -int32(j + 1)
}

func (h *eventHeap) push(e *Event) {
	*h = append(*h, e)
	e.pos = -int32(len(*h))
	h.up(len(*h) - 1)
}

// remove deletes the element at index i.
func (h *eventHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	if i != n {
		old.swap(i, n)
	}
	old[n].pos = 0
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
