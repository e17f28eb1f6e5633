package sim

// Resource models a unit-capacity device (a bus, a processor, a DMA engine)
// that serves requests one at a time in FIFO order.  Callers ask for the
// resource for a known service duration and receive a callback when service
// completes; the kernel stays single-threaded.
//
// The model is non-preemptive, which matches the hardware being simulated:
// a bus burst or a firmware routine runs to completion once started.
type Resource struct {
	k *Kernel

	busyUntil Time
	queue     ring[pendingUse]
	queuedDur Duration // sum of the queued requests' service durations

	// completeFn is the bound complete method. Each service's completion
	// event carries its own done callback as the event's argument, queued
	// under the key Post would give it (ReserveSeq, PostBoundary), so
	// steady-state service costs no closure and no Event allocation.
	completeFn func(any)

	busyTime Duration // total time spent serving
}

type pendingUse struct {
	dur  Duration
	done func()
}

// NewResource creates a FIFO-served unit resource attached to kernel k.
func NewResource(k *Kernel) *Resource {
	r := &Resource{k: k}
	r.completeFn = r.complete
	return r
}

// Busy reports whether the resource is serving a request now.
func (r *Resource) Busy() bool { return r.k.Now() < r.busyUntil }

// QueueLen reports how many requests are waiting (not counting the one in
// service).
func (r *Resource) QueueLen() int { return r.queue.n }

// Use requests the resource for dur nanoseconds. done (may be nil) runs when
// service completes. Requests are served strictly FIFO. Use returns the time
// at which service will complete given the current queue.
func (r *Resource) Use(dur Duration, done func()) Time {
	if dur < 0 {
		panic("sim: negative service duration")
	}
	now := r.k.Now()
	if !r.Busy() && r.queue.n == 0 {
		return r.begin(now, dur, done)
	}
	r.queue.push(pendingUse{dur: dur, done: done})
	r.queuedDur += dur
	// Completion time is an estimate assuming no later arrivals preempt
	// FIFO order, which they cannot.
	return r.busyUntil + r.queuedDur
}

func (r *Resource) begin(now Time, dur Duration, done func()) Time {
	r.busyUntil = now + dur
	r.busyTime += dur
	k := r.k
	k.PostBoundary(r.busyUntil, now, k.Lane(), k.ReserveSeq(), r.completeFn, done)
	return r.busyUntil
}

// complete ends one service: done is the callback Use was given.
func (r *Resource) complete(done any) {
	if done := done.(func()); done != nil {
		done()
	}
	r.next()
}

func (r *Resource) next() {
	if r.queue.n == 0 || r.Busy() {
		return
	}
	p := r.queue.pop()
	r.queuedDur -= p.dur
	r.begin(r.k.Now(), p.dur, p.done)
}

// Utilization returns the fraction of time in [0, now] the resource was busy.
func (r *Resource) Utilization() float64 {
	now := r.k.Now()
	if now == 0 {
		return 0
	}
	busy := r.busyTime
	if r.Busy() {
		busy -= r.busyUntil - now // don't count future service yet
	}
	return float64(busy) / float64(now)
}

// ring is a FIFO over a circular buffer that doubles when full. Its backing
// array stays under twice the peak occupancy however long the queue runs
// without draining, and steady-state push/pop allocate nothing.
type ring[T any] struct {
	buf  []T // len is zero or a power of two
	head int // index of the oldest element
	n    int // elements queued
}

func (q *ring[T]) push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// pop removes and returns the oldest element; the queue must not be empty.
// The vacated slot is zeroed so a served request's callback can be
// collected.
func (q *ring[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// grow doubles the buffer, unrolling the full ring into FIFO order.
func (q *ring[T]) grow() {
	buf := make([]T, max(8, 2*len(q.buf)))
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}
