package phy

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/atm"
	"repro/internal/sim"
)

// delayLineRun sends one cell every 7 µs over a 1 ms link. A timer posted
// beside every send lands on the same instant as that cell's arrival, and a
// second timer posted before the send lands there too, so the log pins how
// fiber heads order against unrelated events scheduled before and after
// them. With perCell set, each cell is its own kernel Post instead, the
// reference the delay line must reproduce.
func delayLineRun(k *sim.Kernel, perCell bool) ([]string, uint64) {
	var log []string
	deliver := func(c *atm.Cell) { log = append(log, fmt.Sprintf("%d cell %d", k.Now(), c.Header.VCI)) }
	const delay = sim.Millisecond
	l := NewCellLink(k, delay, 1, atm.SinkFunc(deliver), atm.NewPool(0))
	const period = 7 * sim.Microsecond
	i := 0
	var tick func()
	tick = func() {
		n := i
		k.PostAfter(delay, func() { log = append(log, fmt.Sprintf("%d early timer %d", k.Now(), n)) })
		c := &atm.Cell{}
		c.Header.VCI = uint16(i)
		if perCell {
			k.PostAfter(delay, func() { deliver(c) })
		} else {
			l.Send(c)
		}
		k.PostAfter(delay, func() { log = append(log, fmt.Sprintf("%d timer %d", k.Now(), n)) })
		if i++; i < 300 {
			k.PostAfter(period, tick)
		}
	}
	k.Post(0, tick)
	k.Run()
	return log, k.Dispatched()
}

// The delay line dispatches each cell at the key its own Post would have
// had, and refuses a cell due before its tail: arrivals must not decrease.
func TestDelayLineOutOfOrderPost(t *testing.T) {
	want, wantN := delayLineRun(sim.NewKernel(), true)
	for name, k := range map[string]*sim.Kernel{"wheel": sim.NewKernel(), "heap": sim.NewHeapKernel()} {
		got, n := delayLineRun(k, false)
		if n != wantN {
			t.Errorf("%s: %d events dispatched, want %d", name, n, wantN)
		}
		if !reflect.DeepEqual(got, want) {
			for i := range got {
				if i >= len(want) || got[i] != want[i] {
					t.Fatalf("%s: dispatch %d is %q, want one-event-per-cell order %q", name, i, got[i], want[min(i, len(want)-1)])
				}
			}
			t.Fatalf("%s: %d dispatches logged, want %d", name, len(got), len(want))
		}
	}
	cd := NewCellDeferrer(sim.NewKernel(), func(*atm.Cell) {})
	cd.Post(10, &atm.Cell{})
	defer func() {
		if recover() == nil {
			t.Fatal("a cell due before the delay line's tail did not panic")
		}
	}()
	cd.Post(5, &atm.Cell{})
}

// A 5 ms fiber at the STS-3c cell rate holds ~1800 cells; once the delay
// line has grown to hold them, sending and delivering costs no allocation.
func TestDelayLineZeroAllocsInFlight(t *testing.T) {
	k := sim.NewKernel()
	pool := atm.NewPool(0)
	arrived := 0
	l := NewCellLink(k, 5*sim.Millisecond, 1, atm.SinkFunc(func(c *atm.Cell) {
		arrived++
		pool.Put(c)
	}), pool)
	const cellTime = 2726
	step := func() {
		l.Send(pool.Get())
		k.RunFor(cellTime)
	}
	for k.Now() < 6*sim.Millisecond {
		step()
	}
	allocs := testing.AllocsPerRun(1000, step)
	if inFlight := int(l.Stats().Sent) - arrived; inFlight < 1000 {
		t.Fatalf("%d cells in flight, want at least 1000", inFlight)
	}
	if allocs != 0 {
		t.Fatalf("delay line allocates %v per cell, want 0", allocs)
	}
}

// Pending must stay above zero while any cell is in flight, though the line
// queues only its head in the kernel.
func TestDelayLinePendingWhileInFlight(t *testing.T) {
	k := sim.NewKernel()
	arrived := 0
	l := NewCellLink(k, 2*sim.Millisecond, 1, atm.SinkFunc(func(*atm.Cell) { arrived++ }), atm.NewPool(0))
	for i := 0; i < 100; i++ {
		l.Send(&atm.Cell{})
		k.RunFor(3 * sim.Microsecond)
	}
	for arrived < 100 {
		if k.Pending() == 0 {
			t.Fatalf("Pending() = 0 with %d of 100 cells in flight", 100-arrived)
		}
		k.Step()
	}
	if k.Pending() != 0 {
		t.Fatalf("Pending() = %d after every cell arrived", k.Pending())
	}
}
