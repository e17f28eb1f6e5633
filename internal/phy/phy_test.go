package phy

import (
	"bytes"
	"testing"

	"repro/internal/atm"
	"repro/internal/bufpool"
	"repro/internal/metrics"
	"repro/internal/sim"
)

func TestCellLinkDeliversAfterDelay(t *testing.T) {
	k := sim.NewKernel()
	var at sim.Time = -1
	l := NewCellLink(k, 5000, 1, atm.SinkFunc(func(c *atm.Cell) { at = k.Now() }), atm.NewPool(0))
	l.Send(&atm.Cell{})
	k.Run()
	if at != 5000 {
		t.Fatalf("delivered at %v, want 5000", int64(at))
	}
	s := l.Stats()
	if s.Sent != 1 || s.Delivered != 1 || s.Lost != 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestCellLinkPreservesOrder(t *testing.T) {
	k := sim.NewKernel()
	var got []uint16
	l := NewCellLink(k, 100, 1, atm.SinkFunc(func(c *atm.Cell) { got = append(got, c.Header.VCI) }), atm.NewPool(0))
	for i := 0; i < 10; i++ {
		c := &atm.Cell{}
		c.Header.VCI = uint16(i)
		l.Send(c)
	}
	k.Run()
	for i, v := range got {
		if int(v) != i {
			t.Fatalf("order %v", got)
		}
	}
}

func TestCellLinkLossRate(t *testing.T) {
	k := sim.NewKernel()
	delivered := 0
	pool := atm.NewPool(0)
	l := NewCellLink(k, 0, 42, atm.SinkFunc(func(c *atm.Cell) { delivered++ }), pool)
	l.LossProb = 0.1
	n := 100000
	for i := 0; i < n; i++ {
		l.Send(&atm.Cell{})
	}
	k.Run()
	rate := 1 - float64(delivered)/float64(n)
	if rate < 0.09 || rate > 0.11 {
		t.Fatalf("loss rate %v, want ~0.1", rate)
	}
	if l.Stats().Lost != uint64(n-delivered) {
		t.Fatal("loss accounting mismatch")
	}
	if _, puts, _ := pool.Stats(); puts != uint64(n-delivered) {
		t.Fatalf("%d lost cells recycled, want %d", puts, n-delivered)
	}
}

func TestCellLinkCorruptionFlipsOneBit(t *testing.T) {
	k := sim.NewKernel()
	var got *atm.Cell
	l := NewCellLink(k, 0, 7, atm.SinkFunc(func(c *atm.Cell) { got = c }), atm.NewPool(0))
	l.CorruptProb = 1.0
	c := &atm.Cell{}
	orig := c.Payload
	l.Send(c)
	k.Run()
	diff := 0
	for i := range got.Payload {
		x := got.Payload[i] ^ orig[i]
		for ; x != 0; x &= x - 1 {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("%d bits flipped, want 1", diff)
	}
}

// TestFrameLinkDeliversOwnedBuffer: Send takes the buffer the frame was
// built in, and the sink receives that very buffer with the frame's bytes.
func TestFrameLinkDeliversOwnedBuffer(t *testing.T) {
	k := sim.NewKernel()
	var got []byte
	l := NewFrameLink(k, 10, 1, func(f []byte) { got = f }, nil)
	buf := l.Buffer(3)
	copy(buf, []byte{1, 2, 3})
	l.Send(buf)
	k.Run()
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("delivered % x, want 01 02 03", got)
	}
	if &got[0] != &buf[0] {
		t.Fatal("frame link copied the frame instead of carrying the sent buffer")
	}
}

func TestFrameLinkBitError(t *testing.T) {
	k := sim.NewKernel()
	var got []byte
	l := NewFrameLink(k, 0, 3, func(f []byte) { got = f }, nil)
	l.BitErrProb = 1.0
	frame := l.Buffer(64)
	clear(frame)
	l.Send(frame)
	k.Run()
	if len(got) != 64 {
		t.Fatalf("delivered %d bytes, want 64", len(got))
	}
	diff := 0
	for i := range got {
		x := got[i]
		for ; x != 0; x &= x - 1 {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("%d bits flipped, want 1", diff)
	}
}

// TestFrameLinkPoolRecyclesBuffers: with a pool, every frame's buffer comes
// from it and returns to it once the sink is done, so a steady stream hits
// the free list for every frame after the first. Frames built while the
// fiber is cut go nowhere and leave the pool alone.
func TestFrameLinkPoolRecyclesBuffers(t *testing.T) {
	k := sim.NewKernel()
	frames := 0
	l := NewFrameLink(k, 10, 1, func(f []byte) { frames++ }, nil)
	pool := bufpool.New()
	pool.Instrument(metrics.NewRegistry(), "frames")
	l.SetBufPool(pool)
	// Prime the pool with the first flight, then the steady state must hit
	// the free list for every frame.
	l.Send(l.Buffer(2430))
	k.Run()
	for i := 0; i < 50; i++ {
		l.Send(l.Buffer(2430))
		k.Run()
	}
	if frames != 51 {
		t.Fatalf("%d frames delivered, want 51", frames)
	}
	hits, misses, puts := pool.Stats()
	if misses != 1 || hits != 50 || puts != 51 {
		t.Fatalf("pool hits=%d misses=%d puts=%d, want 50/1/51", hits, misses, puts)
	}
	l.Fail()
	for i := 0; i < 5; i++ {
		l.Send(l.Buffer(2430))
	}
	k.Run()
	if h, m, p := pool.Stats(); frames != 51 || h != hits || m != misses || p != puts {
		t.Fatalf("cut fiber: %d frames delivered, pool %d/%d/%d, want 51 and %d/%d/%d",
			frames, h, m, p, hits, misses, puts)
	}
}

func TestPropDelay(t *testing.T) {
	// 1000 km of fiber = 5 ms.
	if got := PropDelay(1000); got != 5*sim.Millisecond {
		t.Fatalf("PropDelay(1000) = %v", got)
	}
	if got := PropDelay(0.2); got != 1000 {
		t.Fatalf("PropDelay(0.2km) = %v ns, want 1000", int64(got))
	}
}

func TestNilSinkPanics(t *testing.T) {
	k := sim.NewKernel()
	for name, fn := range map[string]func(){
		"cell":  func() { NewCellLink(k, 0, 1, nil, atm.NewPool(0)) },
		"frame": func() { NewFrameLink(k, 0, 1, nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: nil sink did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// The cell delivery path — CellLink.Send through the deferrer and the
// kernel's Post free list to the sink — must not allocate at steady state.
func TestCellLinkSendZeroAlloc(t *testing.T) {
	k := sim.NewKernel()
	delivered := 0
	l := NewCellLink(k, 5000, 1, atm.SinkFunc(func(c *atm.Cell) { delivered++ }), atm.NewPool(0))
	c := &atm.Cell{}
	// Warm the deferrer and kernel free lists.
	l.Send(c)
	k.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		l.Send(c)
		k.Run()
	})
	if allocs != 0 {
		t.Fatalf("cell delivery allocates %v per op, want 0", allocs)
	}
	if delivered == 0 {
		t.Fatal("nothing delivered")
	}
}

// sigRecorder captures carrier transitions with their observation times.
type sigRecorder struct {
	k      *sim.Kernel
	ups    []bool
	atTime []sim.Time
}

func (s *sigRecorder) SignalChange(up bool) {
	s.ups = append(s.ups, up)
	s.atTime = append(s.atTime, s.k.Now())
}

func TestCellLinkFailRestore(t *testing.T) {
	k := sim.NewKernel()
	pool := atm.NewPool(0)
	rec := &sinkWithSignal{sigRecorder: sigRecorder{k: k}}
	l := NewCellLink(k, 5000, 1, rec, pool)

	l.Send(&atm.Cell{}) // in flight before the cut: still arrives
	l.Fail()
	if !l.down {
		t.Fatal("link up after Fail")
	}
	l.Fail() // idempotent
	for i := 0; i < 3; i++ {
		l.Send(&atm.Cell{}) // into the dead fiber
	}
	k.Run()
	if rec.cells != 1 {
		t.Fatalf("delivered %d cells, want only the pre-cut one", rec.cells)
	}
	s := l.Stats()
	if s.DroppedDown != 3 || s.Lost != 3 {
		t.Fatalf("stats %+v, want 3 dropped-down", s)
	}
	if _, puts, _ := pool.Stats(); puts != 3 {
		t.Fatalf("%d cells recycled, want the 3 the dead fiber lost", puts)
	}

	l.Restore()
	if l.down {
		t.Fatal("link down after Restore")
	}
	l.Send(&atm.Cell{})
	k.Run()
	if rec.cells != 2 {
		t.Fatalf("delivered %d cells after repair, want 2", rec.cells)
	}
	// Each carrier transition is observed one propagation delay later.
	if len(rec.ups) != 2 || rec.ups[0] || !rec.ups[1] {
		t.Fatalf("signal transitions %v, want [down up]", rec.ups)
	}
	for i, at := range rec.atTime {
		if (at-5000)%5000 != 0 && at < 5000 {
			t.Fatalf("transition %d at %v, want >= one delay", i, at)
		}
	}
}

// sinkWithSignal is a cell sink that also tracks the line signal.
type sinkWithSignal struct {
	sigRecorder
	cells int
}

func (s *sinkWithSignal) DeliverCell(*atm.Cell) { s.cells++ }

// TestCellLinkSignalFallsBackToSink: carrier transitions reach the sink the
// link was built with when it implements SignalConsumer, even after a tap
// replaces the delivery end.
func TestCellLinkSignalFallsBackToSink(t *testing.T) {
	k := sim.NewKernel()
	sink := &sinkWithSignal{sigRecorder: sigRecorder{k: k}}
	l := NewCellLink(k, 0, 1, sink, atm.NewPool(0))
	l.AttachSink(atm.SinkFunc(sink.DeliverCell))
	l.Fail()
	l.Restore()
	k.Run()
	if len(sink.ups) != 2 || sink.ups[0] || !sink.ups[1] {
		t.Fatalf("sink saw transitions %v, want [down up]", sink.ups)
	}
}

func TestFrameLinkFailRestore(t *testing.T) {
	k := sim.NewKernel()
	frames := 0
	rec := &sigRecorder{k: k}
	l := NewFrameLink(k, 2500, 1, func(frame []byte) { frames++ }, rec)

	buf := make([]byte, 64)
	l.Send(buf)
	l.Fail()
	l.Send(buf)
	l.Send(buf)
	k.Run()
	if frames != 1 {
		t.Fatalf("delivered %d frames, want only the pre-cut one", frames)
	}
	l.Restore()
	l.Send(buf)
	k.Run()
	if frames != 2 {
		t.Fatalf("delivered %d frames after repair, want 2", frames)
	}
	if len(rec.ups) != 2 || rec.ups[0] || !rec.ups[1] {
		t.Fatalf("signal transitions %v, want [down up]", rec.ups)
	}
}
