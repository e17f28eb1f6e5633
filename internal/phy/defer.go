package phy

import (
	"repro/internal/atm"
	"repro/internal/sim"
)

// CellDeferrer schedules "deliver this cell to this sink later" callbacks
// without allocating. The per-cell closure idiom
//
//	k.After(delay, func() { sink(c) })
//
// costs a closure plus an Event per cell; the deferrer instead parks the
// (cell, sink) pair in a pooled record whose bound fire method was created
// once, and schedules it through the kernel's Post free list — steady-state
// deferral is 0 allocs/op. CellLink and the sonetlink cell-recovery path
// both defer through this.
type CellDeferrer struct {
	k    *sim.Kernel
	free *cellDefer
}

type cellDefer struct {
	d    *CellDeferrer
	c    *atm.Cell
	sink func(*atm.Cell)
	fn   func() // bound fire method, created once per record
	next *cellDefer
}

// NewCellDeferrer returns a deferrer scheduling on kernel k.
func NewCellDeferrer(k *sim.Kernel) *CellDeferrer {
	return &CellDeferrer{k: k}
}

// Post schedules sink(c) to run d nanoseconds from now.
func (cd *CellDeferrer) Post(d sim.Duration, sink func(*atm.Cell), c *atm.Cell) {
	r := cd.free
	if r == nil {
		r = &cellDefer{d: cd}
		r.fn = r.fire
	} else {
		cd.free = r.next
		r.next = nil
	}
	r.c, r.sink = c, sink
	cd.k.PostAfter(d, r.fn)
}

// fire recycles the record before invoking the sink, so a sink that defers
// further cells can reuse it immediately.
func (r *cellDefer) fire() {
	c, sink := r.c, r.sink
	r.c, r.sink = nil, nil
	r.next = r.d.free
	r.d.free = r
	sink(c)
}
