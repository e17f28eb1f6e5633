// Conservative parallel execution: a Group runs one kernel per topology
// partition on its own goroutine, advancing all of them in lock-step windows
// bounded by the minimum cross-partition link delay (the lookahead). Inside
// a window every kernel is an ordinary serial simulator; traffic that
// crosses a partition boundary is appended to a Mailbox by the sending
// shard and drained into the receiving kernel at the barrier between
// windows. Because a cell sent at time t over a link with delay D arrives
// at t+D >= windowEnd whenever D >= window width, no kernel can ever
// receive an event in its past — the classic Chandy–Misra argument, with
// the lock-step window playing the role of the null message.
package sim

import "fmt"

// boundaryItem is one deferred cross-partition event: the full dispatch key
// plus the closure-free callback pair.
type boundaryItem struct {
	at, pt Time
	lane   int32
	seq    uint64
	afn    func(any)
	arg    any
}

// Mailbox carries events across one directed partition boundary (one cut
// link direction). Post is called only by the source partition's goroutine
// while a window executes; drain is called only by the coordinator between
// windows. The barrier's channel hand-offs give the happens-before edges,
// so no locking is needed.
type Mailbox struct {
	src, dst *Kernel
	lane     int32 // source partition rank, stamped on every item
	items    []boundaryItem
}

// Post enqueues afn(arg) to run in the destination partition at absolute
// time at. pt must be the sending kernel's current time; the item draws a
// sequence number from the sending kernel so that several same-instant
// sends keep their order, exactly as serial link posts would.
func (m *Mailbox) Post(at, pt Time, afn func(any), arg any) {
	m.items = append(m.items, boundaryItem{at: at, pt: pt, lane: m.lane, seq: m.src.ReserveSeq(), afn: afn, arg: arg})
}

// drain moves every queued item into the destination kernel. Coordinator
// only, between windows.
func (m *Mailbox) drain() {
	for i := range m.items {
		it := &m.items[i]
		m.dst.PostBoundary(it.at, it.pt, it.lane, it.seq, it.afn, it.arg)
		it.afn, it.arg = nil, nil
	}
	m.items = m.items[:0]
}

// Group is the conservative parallel executor: a set of partition kernels,
// the mailboxes connecting them, and the lock-step window width (the
// minimum mailbox lookahead). A Group with one kernel and no mailboxes
// degenerates to the serial kernel run one window at a time.
type Group struct {
	kernels   []*Kernel
	mailboxes []*Mailbox
	window    Duration // min lookahead across mailboxes; Never when none

	now     Time // logical group clock: high-water mark of finished windows
	started bool
	work    []chan Time // per-shard window limit
	done    chan struct{}
}

// NewGroup builds an executor over the given kernels, assigning each its
// lane (partition rank) in slice order. The kernels must not be driven
// directly once grouped; use the Group's Run methods.
func NewGroup(kernels []*Kernel) *Group {
	if len(kernels) == 0 {
		panic("sim: NewGroup with no kernels")
	}
	g := &Group{kernels: kernels, window: Never}
	for i, k := range kernels {
		k.SetLane(int32(i))
	}
	return g
}

// Mailbox creates and registers the conduit for one cut-link direction from
// kernel src to kernel dst, declaring the link's propagation delay as
// lookahead. The group window shrinks to the smallest declared lookahead.
func (g *Group) Mailbox(src, dst *Kernel, lookahead Duration) *Mailbox {
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: mailbox lookahead %v must be positive (zero-delay links cannot cross partitions)", lookahead))
	}
	m := &Mailbox{src: src, dst: dst, lane: src.Lane()}
	g.mailboxes = append(g.mailboxes, m)
	if lookahead < g.window {
		g.window = lookahead
	}
	return m
}

// start launches one persistent worker goroutine per kernel. Each worker
// runs windows on demand: receive a limit, RunBefore(limit), signal done.
func (g *Group) start() {
	if g.started {
		return
	}
	g.started = true
	g.work = make([]chan Time, len(g.kernels))
	g.done = make(chan struct{}, len(g.kernels))
	for i, k := range g.kernels {
		ch := make(chan Time)
		g.work[i] = ch
		go func(k *Kernel, ch chan Time) {
			for limit := range ch {
				k.RunBefore(limit)
				g.done <- struct{}{}
			}
		}(k, ch)
	}
}

// Close stops the worker goroutines. The group cannot be run afterwards.
func (g *Group) Close() {
	if !g.started {
		return
	}
	for _, ch := range g.work {
		close(ch)
	}
	g.started = false
	g.work = nil
}

// minNext returns the earliest queued event time across all kernels.
// Mailboxes are always empty when this is called (drained at each barrier).
func (g *Group) minNext() Time {
	tmin := Never
	for _, k := range g.kernels {
		if t := k.NextEventTime(); t < tmin {
			tmin = t
		}
	}
	return tmin
}

// runWindow executes one lock-step window [.., limit) on every kernel in
// parallel, then drains all mailboxes at the barrier.
func (g *Group) runWindow(limit Time) {
	for _, ch := range g.work {
		ch <- limit
	}
	for range g.kernels {
		<-g.done
	}
	for _, m := range g.mailboxes {
		m.drain()
	}
}

// windowEnd computes the exclusive end of the window opening at tmin,
// saturating instead of overflowing.
func (g *Group) windowEnd(tmin Time) Time {
	if g.window == Never || tmin > Never-g.window {
		return Never
	}
	return tmin + g.window
}

// Run executes windows until every kernel's queue drains (all mailboxes are
// empty at each barrier by construction). It returns the latest kernel
// time.
func (g *Group) Run() Time {
	g.start()
	for {
		tmin := g.minNext()
		if tmin == Never {
			break
		}
		g.runWindow(g.windowEnd(tmin))
	}
	for _, k := range g.kernels {
		if k.now > g.now {
			g.now = k.now
		}
	}
	return g.now
}

// RunUntil executes events with timestamps <= deadline on every kernel,
// then sets each kernel's clock (and the group clock) to the deadline —
// the same contract as the serial Kernel.RunUntil. Each window opens at
// the earliest queued event across the group, so idle stretches cost one
// barrier, not one barrier per window width.
func (g *Group) RunUntil(deadline Time) Time {
	g.start()
	for {
		tmin := g.minNext()
		if tmin > deadline {
			break
		}
		limit := g.windowEnd(tmin)
		if limit > deadline {
			// Final window: deadline+1 keeps events AT the deadline
			// inside (RunUntil is inclusive), and stays below every
			// undrained arrival, which lands at >= tmin+lookahead.
			limit = deadline + 1
		}
		g.runWindow(limit)
	}
	for _, k := range g.kernels {
		if k.now < deadline {
			k.now = deadline
		}
	}
	g.now = deadline
	return g.now
}

// RunFor advances the whole group by d nanoseconds of simulated time.
func (g *Group) RunFor(d Duration) Time { return g.RunUntil(g.now + d) }
