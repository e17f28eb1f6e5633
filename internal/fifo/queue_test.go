package fifo

import (
	"testing"

	"repro/internal/atm"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// queueWorld is one queue with every instrument and a recorder attached.
type queueWorld struct {
	k    *sim.Kernel
	reg  *metrics.Registry
	pool *atm.Pool
	rec  *trace.Recorder
	q    *Queue
}

func newQueueWorld(classes, depth int) *queueWorld {
	w := &queueWorld{k: sim.NewKernel(), reg: metrics.NewRegistry(), pool: atm.NewPool(0)}
	w.rec = trace.NewRecorder(w.k, 64)
	w.q = NewQueue(w.k, classes, depth, w.pool, w.reg, metrics.DropFIFO)
	w.q.Ring(0).Instrument(w.reg, "q")
	w.q.Stage = w.rec.Stage("n", "q")
	w.q.Residency = w.reg.Histogram("q.residency")
	w.q.Occupancy = w.reg.Gauge("q.occupancy_all")
	return w
}

func cellOn(vci uint16) *atm.Cell {
	return &atm.Cell{Header: atm.Header{Format: atm.UNI, VCI: vci}}
}

func (w *queueWorld) events(kind trace.Kind) []trace.Event {
	var out []trace.Event
	for _, ev := range w.rec.Events() {
		if ev.Kind == kind {
			out = append(out, ev)
		}
	}
	return out
}

// TestQueueAdmitStampsAndLeaveTimes pins the two moves: Admit stamps the
// cell with its entry time, and Leave observes its residency and records
// one whole span from that stamp.
func TestQueueAdmitStampsAndLeaveTimes(t *testing.T) {
	w := newQueueWorld(1, 4)
	c := cellOn(7)
	w.k.At(100, func() {
		if !w.q.Admit(c, 0) {
			t.Fatal("admit into an empty queue refused")
		}
	})
	w.k.At(350, func() {
		got, ok := w.q.Leave()
		if !ok || got != c {
			t.Fatalf("leave = %p,%v, want the admitted cell", got, ok)
		}
	})
	w.k.Run()
	if c.Stamp != 100 {
		t.Fatalf("stamp %d, want the admit time 100", c.Stamp)
	}
	if h := w.q.Residency; h.Count() != 1 || h.Max() != 250 {
		t.Fatalf("residency count %d max %d, want one 250 ns observation", h.Count(), h.Max())
	}
	spans := w.events(trace.KindSpan)
	if len(spans) != 1 || spans[0].Start != 100 || spans[0].At != 350 || spans[0].VC != c.Header.VC() {
		t.Fatalf("spans %+v, want one 100..350 on the cell's VC", spans)
	}
	if w.q.Len() != 0 || w.q.Occupancy.Max() != 1 {
		t.Fatalf("len %d, occupancy watermark %d, want 0 and 1", w.q.Len(), w.q.Occupancy.Max())
	}
	if _, ok := w.q.Leave(); ok {
		t.Fatal("leave from an empty queue succeeded")
	}
}

// TestQueueOverflowDropsOnce pins the drop: a cell a full queue refuses is
// counted once by the ring, once in its VC's row under the queue's cause
// and once on the span, and goes back to the pool.
func TestQueueOverflowDropsOnce(t *testing.T) {
	w := newQueueWorld(1, 2)
	w.q.Admit(cellOn(7), 0)
	w.q.Admit(cellOn(7), 0)
	if !w.q.Full() {
		t.Fatal("a depth-2 queue holding 2 cells is not full")
	}
	_, puts0, _ := w.pool.Stats()
	over := cellOn(9)
	if w.q.Admit(over, 0) {
		t.Fatal("admit into a full queue accepted")
	}
	if got := w.q.Ring(0).Stats().Drops; got != 1 {
		t.Errorf("ring drops %d, want 1", got)
	}
	row := w.reg.VC(0, 9)
	if got := row.Drops[metrics.DropFIFO]; got != 1 {
		t.Errorf("VC row drops %d, want 1", got)
	}
	if drops := w.events(trace.KindDrop); len(drops) != 1 || drops[0].Cause != metrics.DropFIFO || drops[0].VC != over.Header.VC() {
		t.Errorf("span drops %+v, want one fifo_overflow on the refused cell's VC", drops)
	}
	if _, puts, _ := w.pool.Stats(); puts-puts0 != 1 {
		t.Errorf("pool took back %d cells, want the refused one", puts-puts0)
	}
	if got := w.pool.Get(); got != over {
		t.Error("the pool's next cell is not the refused one")
	}
	if w.q.Len() != 2 {
		t.Errorf("len %d after a refused admit, want 2", w.q.Len())
	}
}

// TestQueueDropNamesCause pins the owner's drop: Drop counts the cause it
// is given, not the overflow cause, and recycles the cell.
func TestQueueDropNamesCause(t *testing.T) {
	w := newQueueWorld(1, 2)
	c := cellOn(5)
	w.q.Drop(c, metrics.DropEPD)
	if got := w.reg.VC(0, 5).Drops[metrics.DropEPD]; got != 1 {
		t.Errorf("VC row epd drops %d, want 1", got)
	}
	if drops := w.events(trace.KindDrop); len(drops) != 1 || drops[0].Cause != metrics.DropEPD {
		t.Errorf("span drops %+v, want one epd", drops)
	}
	if w.pool.Get() != c {
		t.Error("the dropped cell did not go back to the pool")
	}
}

// TestQueueLeavesInStrictPriority pins the classes: Leave drains class 0
// before class 1 and so on, FIFO within a class, while Full counts the
// buffer the classes share.
func TestQueueLeavesInStrictPriority(t *testing.T) {
	w := newQueueWorld(3, 4)
	in := []struct {
		vci   uint16
		class int
	}{{1, 2}, {2, 1}, {3, 2}, {4, 0}}
	for _, c := range in {
		w.q.Admit(cellOn(c.vci), c.class)
	}
	if !w.q.Full() || w.q.Len() != 4 {
		t.Fatalf("len %d full %v, want 4 cells filling the shared depth", w.q.Len(), w.q.Full())
	}
	var order []uint16
	for {
		c, ok := w.q.Leave()
		if !ok {
			break
		}
		order = append(order, c.Header.VCI)
	}
	want := []uint16{4, 2, 1, 3}
	if len(order) != len(want) {
		t.Fatalf("left %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("left %v, want %v", order, want)
		}
	}
	if got := w.q.Occupancy.Max(); got != 4 {
		t.Errorf("occupancy watermark %d, want 4 across classes", got)
	}
}
