package sim

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestKernelStartsAtZero(t *testing.T) {
	k := NewKernel()
	if k.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", k.Now())
	}
	if k.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", k.Pending())
	}
}

func TestEventRunsAtScheduledTime(t *testing.T) {
	k := NewKernel()
	var fired Time = -1
	k.At(100, func() { fired = k.Now() })
	k.Run()
	if fired != 100 {
		t.Fatalf("event fired at %v, want 100", fired)
	}
	if k.Now() != 100 {
		t.Fatalf("clock at %v after run, want 100", k.Now())
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	k := NewKernel()
	var at Time
	k.At(50, func() {
		k.After(25, func() { at = k.Now() })
	})
	k.Run()
	if at != 75 {
		t.Fatalf("After fired at %v, want 75", at)
	}
}

func TestEventsRunInTimeOrder(t *testing.T) {
	k := NewKernel()
	var order []Time
	for _, at := range []Time{500, 10, 300, 40, 40, 2} {
		at := at
		k.At(at, func() { order = append(order, at) })
	}
	k.Run()
	if !sort.SliceIsSorted(order, func(i, j int) bool { return order[i] < order[j] }) {
		t.Fatalf("events ran out of order: %v", order)
	}
	if len(order) != 6 {
		t.Fatalf("ran %d events, want 6", len(order))
	}
}

func TestSameTimeEventsRunInInsertionOrder(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(42, func() { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break violated insertion order: %v", order)
		}
	}
}

func TestScheduleInPastPanics(t *testing.T) {
	k := NewKernel()
	k.At(100, func() {})
	k.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	k.At(50, func() {})
}

func TestNilCallbackPanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Fatal("nil callback did not panic")
		}
	}()
	k.At(1, nil)
}

func TestCancelPreventsExecution(t *testing.T) {
	k := NewKernel()
	fired := false
	e := k.At(10, func() { fired = true })
	k.Cancel(e)
	k.Run()
	if fired {
		t.Fatal("cancelled event still fired")
	}
	if e.Scheduled() {
		t.Fatal("cancelled event still reports scheduled")
	}
}

func TestCancelIsIdempotent(t *testing.T) {
	k := NewKernel()
	e := k.At(10, func() {})
	k.Cancel(e)
	k.Cancel(e) // must not panic
	k.Cancel(nil)
	k.Run()
}

func TestCancelMiddleOfQueue(t *testing.T) {
	k := NewKernel()
	var got []int
	e1 := k.At(10, func() { got = append(got, 1) })
	e2 := k.At(20, func() { got = append(got, 2) })
	e3 := k.At(30, func() { got = append(got, 3) })
	_ = e1
	_ = e3
	k.Cancel(e2)
	k.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("got %v, want [1 3]", got)
	}
}

func TestReschedulePending(t *testing.T) {
	k := NewKernel()
	var at Time
	e := k.At(10, func() { at = k.Now() })
	k.Reschedule(e, 99)
	k.Run()
	if at != 99 {
		t.Fatalf("rescheduled event fired at %v, want 99", at)
	}
}

func TestRescheduleFiredEventRequeues(t *testing.T) {
	k := NewKernel()
	count := 0
	var e *Event
	e = k.At(10, func() { count++ })
	k.Run()
	k.Reschedule(e, k.Now()+5)
	k.Run()
	if count != 2 {
		t.Fatalf("event ran %d times, want 2", count)
	}
}

func TestRunUntilLeavesLaterEventsQueued(t *testing.T) {
	k := NewKernel()
	var fired []Time
	k.At(10, func() { fired = append(fired, 10) })
	k.At(20, func() { fired = append(fired, 20) })
	k.At(30, func() { fired = append(fired, 30) })
	k.RunUntil(20)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want [10 20]", fired)
	}
	if k.Now() != 20 {
		t.Fatalf("clock at %v, want 20", k.Now())
	}
	if k.Pending() != 1 {
		t.Fatalf("%d pending, want 1", k.Pending())
	}
}

func TestRunUntilAdvancesClockToDeadline(t *testing.T) {
	k := NewKernel()
	k.RunUntil(1234)
	if k.Now() != 1234 {
		t.Fatalf("clock at %v, want 1234", k.Now())
	}
}

func TestRunForIsRelative(t *testing.T) {
	k := NewKernel()
	k.RunUntil(100)
	k.RunFor(50)
	if k.Now() != 150 {
		t.Fatalf("clock at %v, want 150", k.Now())
	}
}

func TestDispatchedCounter(t *testing.T) {
	k := NewKernel()
	for i := Time(1); i <= 5; i++ {
		k.At(i, func() {})
	}
	k.Run()
	if k.Dispatched() != 5 {
		t.Fatalf("Dispatched() = %d, want 5", k.Dispatched())
	}
}

// Property: for any set of non-negative offsets, the kernel executes all
// events in non-decreasing time order and finishes with the clock at the max.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(offsets []uint16) bool {
		k := NewKernel()
		var seen []Time
		var max Time
		for _, o := range offsets {
			at := Time(o)
			if at > max {
				max = at
			}
			k.At(at, func() { seen = append(seen, k.Now()) })
		}
		k.Run()
		if len(seen) != len(offsets) {
			return false
		}
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(offsets) == 0 || k.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling an arbitrary subset leaves exactly the others to run.
func TestPropertyCancelSubset(t *testing.T) {
	f := func(offsets []uint8, mask []bool) bool {
		k := NewKernel()
		events := make([]*Event, len(offsets))
		ran := make([]bool, len(offsets))
		for i, o := range offsets {
			i := i
			events[i] = k.At(Time(o), func() { ran[i] = true })
		}
		cancelled := make([]bool, len(offsets))
		for i := range offsets {
			if i < len(mask) && mask[i] {
				k.Cancel(events[i])
				cancelled[i] = true
			}
		}
		k.Run()
		for i := range offsets {
			if ran[i] == cancelled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{2726, "2.726us"},
		{1500000, "1.500ms"},
		{2 * Second, "2.000000s"},
		{Never, "never"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeSeconds(t *testing.T) {
	if s := (2 * Second).Seconds(); s != 2.0 {
		t.Fatalf("Seconds() = %v, want 2", s)
	}
}

// Property: interleaved schedule/cancel/reschedule operations never violate
// time ordering and execute exactly the non-cancelled events.
func TestPropertyRescheduleStress(t *testing.T) {
	type op struct {
		At     uint8
		Cancel bool
		Resch  bool
	}
	f := func(ops []op) bool {
		k := NewKernel()
		var events []*Event
		ran := 0
		expected := 0
		var lastTime Time = -1
		ordered := true
		for _, o := range ops {
			at := Time(o.At) + k.Now()
			switch {
			case o.Cancel && len(events) > 0:
				e := events[len(events)-1]
				events = events[:len(events)-1]
				if e.Scheduled() {
					k.Cancel(e)
					expected--
				}
			case o.Resch && len(events) > 0:
				k.Reschedule(events[len(events)-1], at)
			default:
				e := k.At(at, func() {
					if k.Now() < lastTime {
						ordered = false
					}
					lastTime = k.Now()
					ran++
				})
				events = append(events, e)
				expected++
			}
		}
		k.Run()
		return ordered && ran == expected
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
