package fifo

import (
	"testing"
	"testing/quick"

	"repro/internal/metrics"
)

func TestPushPopOrder(t *testing.T) {
	r := NewRing[int](8)
	for i := 0; i < 5; i++ {
		if !r.Push(i) {
			t.Fatalf("push %d dropped", i)
		}
	}
	for i := 0; i < 5; i++ {
		v, ok := r.Pop()
		if !ok || v != i {
			t.Fatalf("pop = %d,%v, want %d,true", v, ok, i)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("pop from empty succeeded")
	}
}

func TestOverflowDrops(t *testing.T) {
	r := NewRing[int](2)
	r.Instrument(metrics.NewRegistry(), "q")
	r.Push(1)
	r.Push(2)
	if r.Push(3) {
		t.Fatal("push into full FIFO accepted")
	}
	s := r.Stats()
	if s.Drops != 1 || s.Pushes != 2 {
		t.Fatalf("stats %+v", s)
	}
	// Contents unharmed.
	if v, _ := r.Pop(); v != 1 {
		t.Fatalf("head = %d, want 1", v)
	}
}

func TestWraparound(t *testing.T) {
	r := NewRing[int](4)
	for round := 0; round < 10; round++ {
		for i := 0; i < 3; i++ {
			if !r.Push(round*10 + i) {
				t.Fatalf("round %d push %d dropped", round, i)
			}
		}
		for i := 0; i < 3; i++ {
			v, ok := r.Pop()
			if !ok || v != round*10+i {
				t.Fatalf("round %d: pop = %d,%v", round, v, ok)
			}
		}
	}
}

func TestFullEmptyFlags(t *testing.T) {
	r := NewRing[int](1)
	if !r.Empty() || r.Full() {
		t.Fatal("fresh FIFO flags wrong")
	}
	r.Push(1)
	if r.Empty() || !r.Full() {
		t.Fatal("single-slot full flags wrong")
	}
	r.Pop()
	if !r.Empty() {
		t.Fatal("drained FIFO not empty")
	}
}

func TestMaxDepth(t *testing.T) {
	r := NewRing[int](8)
	r.Instrument(metrics.NewRegistry(), "q")
	r.Push(1)
	r.Push(2)
	r.Push(3)
	r.Pop()
	r.Push(4)
	s := r.Stats()
	if s.MaxDepth != 3 {
		t.Fatalf("MaxDepth = %d, want 3", s.MaxDepth)
	}
	if s.Pushes != 4 || s.Pops != 1 {
		t.Fatalf("stats %+v, want 4 pushes and 1 pop", s)
	}
}

// Stats is a view over the registry: the named instruments and the
// snapshot agree, and an un-instrumented ring counts nothing.
func TestStatsReadRegistry(t *testing.T) {
	reg := metrics.NewRegistry()
	r := NewRing[int](2)
	r.Instrument(reg, "q")
	r.Push(1)
	r.Push(2)
	r.Push(3)
	r.Pop()
	if got := reg.Counter("q.pushes").Value(); got != 2 {
		t.Errorf("q.pushes = %d, want 2", got)
	}
	if got := reg.Counter("q.drops").Value(); got != 1 {
		t.Errorf("q.drops = %d, want 1", got)
	}
	if got := reg.Counter("q.pops").Value(); got != 1 {
		t.Errorf("q.pops = %d, want 1", got)
	}
	if g := reg.Gauge("q.occupancy"); g.Value() != 1 || g.Max() != 2 {
		t.Errorf("q.occupancy = %d (max %d), want 1 (max 2)", g.Value(), g.Max())
	}
	bare := NewRing[int](2)
	bare.Push(1)
	bare.Push(2)
	bare.Push(3)
	if s := bare.Stats(); s != (Stats{}) {
		t.Errorf("un-instrumented ring counted %+v", s)
	}
}

func TestZeroDepthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRing(0) did not panic")
		}
	}()
	NewRing[int](0)
}

func TestPopReleasesReferences(t *testing.T) {
	r := NewRing[*int](2)
	x := new(int)
	r.Push(x)
	r.Pop()
	// The slot must no longer hold the pointer. Slot reuse would be
	// visible only via unsafe, so instead verify the ring still cycles a
	// nil through the released slot.
	r.Push(nil)
	v, ok := r.Pop()
	if !ok || v != nil {
		t.Fatal("ring corrupted after pointer cycling")
	}
}

// Property: a ring never reorders, never loses accepted items, and never
// exceeds capacity. Model-check against a slice.
func TestPropertyMatchesSliceModel(t *testing.T) {
	f := func(ops []bool, depth uint8) bool {
		d := int(depth%16) + 1
		r := NewRing[int](d)
		var model []int
		next := 0
		for _, push := range ops {
			if push {
				accepted := r.Push(next)
				if accepted != (len(model) < d) {
					return false
				}
				if accepted {
					model = append(model, next)
				}
				next++
			} else {
				v, ok := r.Pop()
				if ok != (len(model) > 0) {
					return false
				}
				if ok {
					if v != model[0] {
						return false
					}
					model = model[1:]
				}
			}
			if r.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPushPop(b *testing.B) {
	r := NewRing[int](64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Push(i)
		r.Pop()
	}
}
