package sim

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

// wheelHorizon is the absolute-time span the wheel covers from time zero;
// events beyond it land in the overflow heap (at time 0, the boundary is
// exactly wheelSlots<<wheelShift).
const wheelHorizon = Time(wheelSlots << wheelShift)

func TestNearEventUsesWheel(t *testing.T) {
	k := NewKernel()
	e := k.At(100, func() {})
	if e.pos <= 0 {
		t.Fatalf("near event placed at pos=%d, want wheel (pos > 0)", e.pos)
	}
}

func TestFarEventUsesOverflow(t *testing.T) {
	k := NewKernel()
	e := k.At(wheelHorizon, func() {})
	if e.pos >= 0 {
		t.Fatalf("far event placed at pos=%d, want overflow (pos < 0)", e.pos)
	}
}

func TestHeapKernelBypassesWheel(t *testing.T) {
	k := NewHeapKernel()
	e := k.At(100, func() {})
	if e.pos >= 0 {
		t.Fatal("heap-only kernel placed event in the wheel")
	}
	var at Time
	k.At(5, func() { at = k.Now() })
	k.Run()
	if at != 5 || k.Now() != 100 {
		t.Fatalf("heap-only kernel misdispatched: at=%v now=%v", at, k.Now())
	}
}

// Cancel of queued wheel events must unlink cleanly at the head, middle, and
// tail of a slot's list.
func TestCancelQueuedWheelEvent(t *testing.T) {
	k := NewKernel()
	var got []int
	es := make([]*Event, 5)
	for i := range es {
		i := i
		// All five share wheel slot 1 (times 256..260 >> 8 == 1).
		es[i] = k.At(Time(256+i), func() { got = append(got, i) })
	}
	k.Cancel(es[0]) // head
	k.Cancel(es[2]) // middle
	k.Cancel(es[4]) // tail
	k.Run()
	if !reflect.DeepEqual(got, []int{1, 3}) {
		t.Fatalf("after head/middle/tail cancels got %v, want [1 3]", got)
	}
	for i, e := range es {
		if e.Scheduled() {
			t.Fatalf("event %d still reports scheduled", i)
		}
	}
}

// A slot list is singly linked, with its tail kept beside its head.
// Cancelling the tail must move the tail back to its predecessor, and later
// inserts into the same slot — an append, a reserved key that goes before a
// same-time local event, one between two survivors and a new head — must
// all dispatch in key order, on the wheel as on the heap.
func TestSlotCancelTailThenInsert(t *testing.T) {
	for _, k := range []*Kernel{NewKernel(), NewHeapKernel()} {
		var got []string
		note := func(s string) func() { return func() { got = append(got, s) } }
		noteAny := func(s string) func(any) { return func(any) { got = append(got, s) } }
		// Slot 1 holds times 256..511.
		k.At(300, note("a300"))
		k.At(310, note("b310"))
		c := k.At(320, note("c320"))
		k.Cancel(c)
		seq := k.ReserveSeq()                                // a key reserved before d is posted
		k.Post(330, note("d330"))                            // appends after b
		k.PostBoundary(330, 0, 0, seq, noteAny("r330"), nil) // walks past d's place to before it
		k.PostBoundary(305, 0, 1, 0, noteAny("x305"), nil)   // between a and b
		k.PostBoundary(290, 0, 1, 1, noteAny("h290"), nil)   // new head
		if k.Pending() != 6 {
			t.Fatalf("%d pending, want 6", k.Pending())
		}
		k.Run()
		want := []string{"h290", "a300", "x305", "b310", "r330", "d330"}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("dispatch order %v, want %v", got, want)
		}
		if k.Pending() != 0 {
			t.Fatalf("%d pending after the run, want 0", k.Pending())
		}
	}
}

// An Event is one cache line: 64 bytes, which is also one of Go's size
// classes. A field added later has to be a deliberate choice. With 32-bit
// words its pointers shrink, so there it need only fit the line.
func TestEventIsOneCacheLine(t *testing.T) {
	got := unsafe.Sizeof(Event{})
	if unsafe.Sizeof(uintptr(0)) == 8 {
		if got != 64 {
			t.Fatalf("sizeof(Event) = %d bytes, want 64", got)
		}
	} else if got > 64 {
		t.Fatalf("sizeof(Event) = %d bytes with 32-bit words, want at most 64", got)
	}
}

// A lane is 16 bits wide in an Event. Anything wider is a programming error
// (core.NewNetwork rejects plans with too many partitions), so both ways a
// lane enters the kernel panic on it.
func TestLaneOutOfRangePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	k := NewKernel()
	k.SetLane(1<<15 - 1)
	if k.Lane() != 1<<15-1 {
		t.Fatalf("Lane() = %d, want %d", k.Lane(), 1<<15-1)
	}
	mustPanic("SetLane(1<<15)", func() { k.SetLane(1 << 15) })
	mustPanic("PostBoundary with lane 1<<15", func() {
		k.PostBoundary(10, 0, 1<<15, 0, func(any) {}, nil)
	})
}

func TestRescheduleAcrossWheelOverflowBoundary(t *testing.T) {
	k := NewKernel()
	var at Time
	e := k.At(100, func() { at = k.Now() })
	if e.pos <= 0 {
		t.Fatal("event did not start in the wheel")
	}
	k.Reschedule(e, 10*Second) // wheel -> overflow
	if e.pos >= 0 {
		t.Fatalf("after far reschedule pos=%d, want overflow (pos < 0)", e.pos)
	}
	k.Reschedule(e, 200) // overflow -> wheel
	if e.pos <= 0 {
		t.Fatalf("after near reschedule pos=%d, want wheel (pos > 0)", e.pos)
	}
	k.Run()
	if at != 200 {
		t.Fatalf("event fired at %v, want 200", at)
	}
}

// Two events at the same timestamp must run in schedule order even when one
// sits in the overflow heap (scheduled while far) and the others in the
// wheel (scheduled after the clock moved within horizon).
func TestSameTickOrderingAcrossTiers(t *testing.T) {
	k := NewKernel()
	const T = Time(500_000)
	var order []int
	k.At(T, func() { order = append(order, 0) }) // beyond horizon: overflow
	k.RunUntil(400_000)                          // T now within horizon
	k.At(T, func() { order = append(order, 1) }) // wheel
	k.At(T, func() { order = append(order, 2) }) // wheel, same slot
	k.Run()
	if !reflect.DeepEqual(order, []int{0, 1, 2}) {
		t.Fatalf("cross-tier same-tick order %v, want [0 1 2]", order)
	}
}

// Events at the wheel/overflow boundary still dispatch in global time order.
func TestDispatchMergesTiersInTimeOrder(t *testing.T) {
	k := NewKernel()
	var order []Time
	note := func() { order = append(order, k.Now()) }
	k.At(wheelHorizon+256, note) // overflow
	k.At(wheelHorizon-1, note)   // last wheel slot
	k.At(wheelHorizon, note)     // first overflow tick
	k.At(3, note)                // first wheel slot
	k.Run()
	want := []Time{3, wheelHorizon - 1, wheelHorizon, wheelHorizon + 256}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("dispatch order %v, want %v", order, want)
	}
}

func TestRunUntilWithEventsExactlyAtDeadline(t *testing.T) {
	k := NewKernel()
	var fired []int
	k.At(100, func() { fired = append(fired, 0) })
	k.At(100, func() { fired = append(fired, 1) })
	k.At(101, func() { fired = append(fired, 2) })
	k.RunUntil(100)
	if !reflect.DeepEqual(fired, []int{0, 1}) {
		t.Fatalf("events at deadline: fired %v, want [0 1]", fired)
	}
	if k.Now() != 100 {
		t.Fatalf("clock at %v, want 100", k.Now())
	}
	if k.Pending() != 1 {
		t.Fatalf("%d pending after deadline run, want 1", k.Pending())
	}
}

func TestRescheduleNilPanicsWithMessage(t *testing.T) {
	k := NewKernel()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Reschedule(nil) did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.HasPrefix(msg, "sim:") {
			t.Fatalf("Reschedule(nil) panicked with %v, want descriptive sim: message", r)
		}
	}()
	k.Reschedule(nil, 10)
}

func TestPostRunsLikeAt(t *testing.T) {
	k := NewKernel()
	var order []int
	k.At(50, func() { order = append(order, 0) })
	k.Post(50, func() { order = append(order, 1) })
	k.At(50, func() { order = append(order, 2) })
	k.PostAfter(50, func() { order = append(order, 3) })
	k.Run()
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3}) {
		t.Fatalf("Post/At interleave order %v, want [0 1 2 3]", order)
	}
}

// A Post callback that itself Posts may receive the very event being
// dispatched from the free list; the kernel must have detached fn first.
func TestPostChainReusesEvent(t *testing.T) {
	k := NewKernel()
	count := 0
	var step func()
	step = func() {
		count++
		if count < 1000 {
			k.PostAfter(1, step)
		}
	}
	k.Post(0, step)
	k.Run()
	if count != 1000 {
		t.Fatalf("chained Post ran %d times, want 1000", count)
	}
}

// Steady-state Post scheduling plus dispatch must be allocation-free: the
// kernel recycles fired events through its free list. This pins the tentpole
// guarantee the datapath hot paths rely on.
func TestPostDispatchZeroAlloc(t *testing.T) {
	k := NewKernel()
	fn := func() {}
	allocs := testing.AllocsPerRun(1000, func() {
		k.PostAfter(100, fn)
		if !k.Step() {
			t.Fatal("no event to step")
		}
	})
	if allocs != 0 {
		t.Fatalf("Post+dispatch allocates %.3f allocs/op, want 0", allocs)
	}
}

// Property: the wheel kernel and the heap-only kernel produce bit-identical
// dispatch traces for arbitrary workloads spanning both tiers, including
// events scheduled from inside callbacks and through the Post fast path.
func TestPropertyWheelHeapEquivalence(t *testing.T) {
	type rec struct {
		At Time
		ID int
	}
	trace := func(k *Kernel, offsets []uint32) []rec {
		var out []rec
		for i, o := range offsets {
			i, o := i, o
			k.At(Time(o), func() {
				out = append(out, rec{k.Now(), i})
				if o%3 == 0 {
					k.PostAfter(Time(o%7)*100, func() {
						out = append(out, rec{k.Now(), -i - 1})
					})
				}
			})
		}
		k.Run()
		return out
	}
	f := func(offsets []uint32) bool {
		wheel := trace(NewKernel(), offsets)
		heap := trace(NewHeapKernel(), offsets)
		return reflect.DeepEqual(wheel, heap)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancel/reschedule stress across both tiers (offsets up to 2^20 ns
// straddle the ~262 µs wheel horizon) behaves identically to the heap kernel.
func TestPropertyWheelHeapCancelEquivalence(t *testing.T) {
	type op struct {
		At     uint32
		Cancel bool
	}
	trace := func(k *Kernel, ops []op) []Time {
		var out []Time
		var events []*Event
		for _, o := range ops {
			at := Time(o.At % (1 << 20))
			if o.Cancel && len(events) > 0 {
				k.Cancel(events[len(events)-1])
				events = events[:len(events)-1]
				continue
			}
			events = append(events, k.At(at, func() { out = append(out, k.Now()) }))
		}
		k.Run()
		return out
	}
	f := func(ops []op) bool {
		return reflect.DeepEqual(trace(NewKernel(), ops), trace(NewHeapKernel(), ops))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: events queued under reserved keys and rescheduled events
// dispatch identically on the wheel and heap kernels, with delays that
// straddle the ~262 µs wheel horizon. Each op's first firing draws a key
// with ReserveSeq, schedules a local event after it at the same time (the
// reserved key must still dispatch first), queues the reserved key with
// PostBoundary the way a fiber delay line does, queues a boundary event
// under a key posted earlier on another partition the way a Mailbox does,
// and may move another op's event with Reschedule.
func TestPropertyWheelHeapReservedKeyEquivalence(t *testing.T) {
	type op struct {
		At, Delay, Move uint32
		Back            uint16 // how far before now the remote key was posted
		Lane            uint8
		Resched         bool
	}
	type rec struct {
		At Time
		ID int
	}
	const span = 1 << 20 // ns: about four wheel horizons
	trace := func(k *Kernel, ops []op) []rec {
		var out []rec
		handles := make([]*Event, len(ops))
		n := len(ops)
		for i, o := range ops {
			i, o := i, o
			fired := false
			handles[i] = k.At(Time(o.At%span), func() {
				out = append(out, rec{k.Now(), i})
				if fired {
					return
				}
				fired = true
				now, d := k.Now(), Duration(o.Delay%span)
				seq := k.ReserveSeq()
				k.PostAfter(d, func() { out = append(out, rec{k.Now(), n + i}) })
				k.PostBoundary(now+d, now, k.Lane(), seq, func(any) {
					out = append(out, rec{k.Now(), 2*n + i})
				}, nil)
				// Remote keys use lanes 1..3, which no local event carries,
				// and one seq per op, so no two events share a full key.
				pt := now - min(now, Time(o.Back))
				k.PostBoundary(now+d/2, pt, 1+int32(o.Lane%3), uint64(i), func(any) {
					out = append(out, rec{k.Now(), 3*n + i})
				}, nil)
				if o.Resched {
					k.Reschedule(handles[(i+1)%n], now+Duration(o.Move%span))
				}
			})
		}
		k.Run()
		return out
	}
	f := func(ops []op) bool {
		return reflect.DeepEqual(trace(NewKernel(), ops), trace(NewHeapKernel(), ops))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
