package phy

import (
	"fmt"

	"repro/internal/atm"
	"repro/internal/sim"
)

// CellDeferrer is a delay line: it delivers each posted cell to its sink
// after the cell's delay, holding the cells in flight in a FIFO instead of
// the kernel's queue. Every cell gets the dispatch key a kernel Post would
// have given it — the key is reserved when the cell enters the line — but
// only the head of the FIFO is queued in the kernel; when it fires, the next
// entry is queued under its own reserved key. Dispatch order and the
// kernel's Dispatched count are therefore those of one event per cell, while
// a 5 ms fiber carrying ~1800 cells keeps one kernel event instead of ~1800,
// and steady-state deferral is 0 allocs/op. CellLink and the sonetlink
// cell-recovery path both defer through this.
//
// The FIFO is also the dispatch order because arrival times never
// decrease: a CellLink's delay is fixed, and sonetlink's recovered cells
// arrive frame by frame, each frame's cells within one 125 µs frame period
// and frames at least a period apart. Post panics on a cell due before the
// tail.
type CellDeferrer struct {
	k      *sim.Kernel
	sink   func(*atm.Cell)
	fireFn func(any) // bound fire method, created once

	ring []inFlight // power-of-two ring buffer
	head int
	n    int
}

// inFlight is one cell in the delay line with its reserved dispatch key.
type inFlight struct {
	c      *atm.Cell
	at, pt sim.Time
	seq    uint64
}

// NewCellDeferrer returns a delay line on kernel k delivering to sink.
func NewCellDeferrer(k *sim.Kernel, sink func(*atm.Cell)) *CellDeferrer {
	cd := &CellDeferrer{k: k, sink: sink, ring: make([]inFlight, 16)}
	cd.fireFn = cd.fire
	return cd
}

// Post schedules sink(c) to run d nanoseconds from now.
func (cd *CellDeferrer) Post(d sim.Duration, c *atm.Cell) {
	// Both checks guard callers' invariants, not input: core refuses a
	// negative link delay as a spec error, a CellLink posts its one fixed
	// delay, and sonetlink posts a frame's cells at rising offsets that all
	// fall before the next frame arrives.
	if d < 0 {
		panic(fmt.Sprintf("phy: negative delay %d", int64(d)))
	}
	k := cd.k
	e := inFlight{c: c, at: k.Now() + d, pt: k.Now(), seq: k.ReserveSeq()}
	if cd.n > 0 && e.at < cd.ring[(cd.head+cd.n-1)&(len(cd.ring)-1)].at {
		panic(fmt.Sprintf("phy: cell due at %d before the delay line's tail: arrivals must not decrease", int64(e.at)))
	}
	if cd.n == len(cd.ring) {
		cd.grow()
	}
	cd.ring[(cd.head+cd.n)&(len(cd.ring)-1)] = e
	cd.n++
	if cd.n == 1 {
		cd.schedule()
	}
}

// schedule queues the head entry in the kernel under its reserved key.
func (cd *CellDeferrer) schedule() {
	e := &cd.ring[cd.head]
	cd.k.PostBoundary(e.at, e.pt, cd.k.Lane(), e.seq, cd.fireFn, nil)
}

// fire delivers the head cell. The next entry is queued first, so a sink
// that posts into this line again finds it consistent.
func (cd *CellDeferrer) fire(any) {
	c := cd.ring[cd.head].c
	cd.ring[cd.head] = inFlight{}
	cd.head = (cd.head + 1) & (len(cd.ring) - 1)
	cd.n--
	if cd.n > 0 {
		cd.schedule()
	}
	cd.sink(c)
}

// grow doubles the ring, unwrapping it so the head lands at index 0.
func (cd *CellDeferrer) grow() {
	ring := make([]inFlight, 2*len(cd.ring))
	m := copy(ring, cd.ring[cd.head:])
	copy(ring[m:], cd.ring[:cd.head])
	cd.ring, cd.head = ring, 0
}
