package sim

import (
	"reflect"
	"testing"
)

func TestResourceServesImmediatelyWhenIdle(t *testing.T) {
	k := NewKernel()
	r := NewResource(k)
	var done Time = -1
	finish := r.Use(100, func() { done = k.Now() })
	if finish != 100 {
		t.Fatalf("predicted finish %v, want 100", finish)
	}
	k.Run()
	if done != 100 {
		t.Fatalf("completed at %v, want 100", done)
	}
}

func TestResourceQueuesFIFO(t *testing.T) {
	k := NewKernel()
	r := NewResource(k)
	var order []int
	r.Use(10, func() { order = append(order, 1) })
	r.Use(10, func() { order = append(order, 2) })
	r.Use(10, func() { order = append(order, 3) })
	k.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("completion order %v, want [1 2 3]", order)
	}
	if k.Now() != 30 {
		t.Fatalf("finished at %v, want 30 (serialized)", k.Now())
	}
}

func TestResourcePredictedFinishWithQueue(t *testing.T) {
	k := NewKernel()
	r := NewResource(k)
	r.Use(10, nil)
	finish := r.Use(20, nil)
	if finish != 30 {
		t.Fatalf("predicted finish %v, want 30", finish)
	}
	finish = r.Use(5, nil)
	if finish != 35 {
		t.Fatalf("predicted finish %v, want 35", finish)
	}
}

func TestResourceArrivalDuringService(t *testing.T) {
	k := NewKernel()
	r := NewResource(k)
	var completions []Time
	r.Use(100, func() { completions = append(completions, k.Now()) })
	k.At(50, func() {
		r.Use(30, func() { completions = append(completions, k.Now()) })
	})
	k.Run()
	if len(completions) != 2 || completions[0] != 100 || completions[1] != 130 {
		t.Fatalf("completions %v, want [100 130]", completions)
	}
}

func TestResourceBusyFlag(t *testing.T) {
	k := NewKernel()
	r := NewResource(k)
	if r.Busy() {
		t.Fatal("idle resource reports busy")
	}
	r.Use(10, nil)
	if !r.Busy() {
		t.Fatal("serving resource reports idle")
	}
	k.Run()
	if r.Busy() {
		t.Fatal("drained resource reports busy")
	}
}

func TestResourceUtilization(t *testing.T) {
	k := NewKernel()
	r := NewResource(k)
	r.Use(100, nil)
	k.Run()
	k.RunUntil(200) // idle 100..200
	if u := r.Utilization(); u != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", u)
	}
}

func TestResourceStats(t *testing.T) {
	k := NewKernel()
	r := NewResource(k)
	var done []Time
	for i := 0; i < 3; i++ {
		r.Use(10, func() { done = append(done, k.Now()) }) // waits 10*i
	}
	if q := r.QueueLen(); q != 2 {
		t.Errorf("QueueLen = %d, want 2", q)
	}
	k.Run()
	if !reflect.DeepEqual(done, []Time{10, 20, 30}) {
		t.Errorf("completions at %v, want [10 20 30]", done)
	}
	if u := r.Utilization(); u != 1 {
		t.Errorf("utilization = %v, want 1 (busy 30 of 30)", u)
	}
}

func TestResourceNegativeDurationPanics(t *testing.T) {
	k := NewKernel()
	r := NewResource(k)
	defer func() {
		if recover() == nil {
			t.Fatal("negative duration did not panic")
		}
	}()
	r.Use(-1, nil)
}

func TestResourceZeroDuration(t *testing.T) {
	k := NewKernel()
	r := NewResource(k)
	ran := false
	r.Use(0, func() { ran = true })
	k.Run()
	if !ran {
		t.Fatal("zero-duration use never completed")
	}
}

// TestResourceDeepBacklog queues 100k requests behind one in service. Every
// request must complete in arrival order at exactly the time Use predicted,
// with the resource busy throughout. A queue that walks or shifts its
// backlog per request is quadratic here.
func TestResourceDeepBacklog(t *testing.T) {
	const n = 100_001 // one in service, 100k queued
	k := NewKernel()
	r := NewResource(k)
	predicted := make([]Time, n)
	completed := make([]Time, 0, n)
	order := make([]int, 0, n)
	for i := 0; i < n; i++ {
		dur := Duration(1 + i%7)
		predicted[i] = r.Use(dur, func() {
			order = append(order, i)
			completed = append(completed, k.Now())
		})
	}
	if q := r.QueueLen(); q != n-1 {
		t.Fatalf("QueueLen = %d, want %d", q, n-1)
	}
	k.Run()
	if len(order) != n {
		t.Fatalf("%d completions, want %d", len(order), n)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("completion %d is request %d: not FIFO", i, order[i])
		}
		if completed[i] != predicted[i] {
			t.Fatalf("request %d completed at %v, Use predicted %v", i, completed[i], predicted[i])
		}
	}
	if u := r.Utilization(); u != 1 {
		t.Fatalf("utilization = %v, want 1: the backlog never let the resource idle", u)
	}
}

// TestResourceRingBounded keeps a constant backlog for many service times:
// the queue never drains, yet its backing array stays within twice the peak
// and steady-state requests allocate nothing.
func TestResourceRingBounded(t *testing.T) {
	const depth = 100
	k := NewKernel()
	r := NewResource(k)
	var refill func()
	refill = func() { r.Use(3, refill) }
	for i := 0; i <= depth; i++ {
		r.Use(3, refill)
	}
	k.RunUntil(1000)
	allocs := testing.AllocsPerRun(100, func() { k.RunFor(3000) })
	if allocs != 0 {
		t.Fatalf("steady-state backlog allocates %v per run, want 0", allocs)
	}
	if q := r.QueueLen(); q != depth {
		t.Fatalf("QueueLen = %d, want a constant %d", q, depth)
	}
	if c := len(r.queue.buf); c > 2*depth {
		t.Fatalf("queue backing array %d slots for a %d-deep backlog", c, depth)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed streams diverged")
		}
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(7)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) only produced %d distinct values in 1000 draws", len(seen))
	}
}

func TestRandBernoulliExtremes(t *testing.T) {
	r := NewRand(7)
	if r.Bernoulli(0) {
		t.Fatal("Bernoulli(0) returned true")
	}
	if !r.Bernoulli(1) {
		t.Fatal("Bernoulli(1) returned false")
	}
}

func TestRandBernoulliMean(t *testing.T) {
	r := NewRand(9)
	n, hits := 100000, 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	mean := float64(hits) / float64(n)
	if mean < 0.28 || mean > 0.32 {
		t.Fatalf("Bernoulli(0.3) empirical mean %v", mean)
	}
}

func TestRandExpMean(t *testing.T) {
	r := NewRand(11)
	n := 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exp(100)
	}
	mean := sum / float64(n)
	if mean < 95 || mean > 105 {
		t.Fatalf("Exp(100) empirical mean %v", mean)
	}
}

func TestIntnNonPositivePanics(t *testing.T) {
	r := NewRand(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}
