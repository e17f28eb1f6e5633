package bufpool

import (
	"testing"

	"repro/internal/metrics"
)

func TestGetReturnsRequestedLength(t *testing.T) {
	p := New()
	for _, n := range []int{1, 48, 64, 65, 9180, 65535} {
		b := p.Get(n)
		if len(b) != n {
			t.Fatalf("Get(%d) returned len %d", n, len(b))
		}
	}
}

func TestGetZeroAndNegative(t *testing.T) {
	p := New()
	if b := p.Get(0); b != nil {
		t.Fatalf("Get(0) = %v, want nil", b)
	}
	if b := p.Get(-5); b != nil {
		t.Fatalf("Get(-5) = %v, want nil", b)
	}
}

func TestPutThenGetRecycles(t *testing.T) {
	p := New()
	p.Instrument(metrics.NewRegistry(), "pool")
	b := p.Get(100) // class 128
	b[0] = 0xAA
	p.Put(b)
	c := p.Get(120) // same class
	if cap(c) != 128 {
		t.Fatalf("recycled cap = %d, want 128", cap(c))
	}
	if len(c) != 120 {
		t.Fatalf("recycled len = %d, want 120", len(c))
	}
	hits, misses, puts := p.Stats()
	if hits != 1 || misses != 1 || puts != 1 {
		t.Fatalf("stats = %d/%d/%d, want 1/1/1", hits, misses, puts)
	}
}

func TestSizeClassBoundaries(t *testing.T) {
	cases := []struct{ n, want int }{
		{1, 0}, {64, 0}, {65, 1}, {128, 1}, {129, 2},
		{9180, 8},   // -> 16 KiB class
		{65535, 10}, // -> 64 KiB class
		{65536, 10},
		{65537, -1}, // oversize, bypasses the pool
	}
	for _, c := range cases {
		if got := class(c.n); got != c.want {
			t.Errorf("class(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestOversizeBypassesPool(t *testing.T) {
	p := New()
	p.Instrument(metrics.NewRegistry(), "pool")
	b := p.Get(1 << 17)
	if len(b) != 1<<17 {
		t.Fatalf("oversize Get len = %d", len(b))
	}
	p.Put(b)
	if _, _, puts := p.Stats(); puts != 0 {
		t.Fatal("oversize buffer was pooled")
	}
}

func TestPutRejectsOddCapacity(t *testing.T) {
	p := New()
	p.Instrument(metrics.NewRegistry(), "pool")
	p.Put(make([]byte, 100)) // cap 100 is not a size class
	p.Put(nil)
	if _, _, puts := p.Stats(); puts != 0 {
		t.Fatalf("odd-capacity buffer was pooled (puts=%d)", puts)
	}
	// A Get after the rejected Put must be a miss, not a corrupt hit.
	b := p.Get(100)
	if cap(b) != 128 {
		t.Fatalf("Get after rejected Put: cap = %d, want 128", cap(b))
	}
}

func TestNilPoolDegradesToMake(t *testing.T) {
	var p *Pool
	b := p.Get(48)
	if len(b) != 48 {
		t.Fatalf("nil pool Get len = %d", len(b))
	}
	p.Put(b) // must not panic
	if h, m, u := p.Stats(); h != 0 || m != 0 || u != 0 {
		t.Fatal("nil pool reported stats")
	}
	p.Instrument(metrics.NewRegistry(), "x") // must not panic
}

func TestInstrumentCounters(t *testing.T) {
	p := New()
	reg := metrics.NewRegistry()
	p.Instrument(reg, "pool")
	b := p.Get(48)
	p.Put(b)
	p.Get(48)
	if v := reg.Counter("pool.hits").Value(); v != 1 {
		t.Fatalf("pool.hits = %d, want 1", v)
	}
	if v := reg.Counter("pool.misses").Value(); v != 1 {
		t.Fatalf("pool.misses = %d, want 1", v)
	}
	if v := reg.Counter("pool.puts").Value(); v != 1 {
		t.Fatalf("pool.puts = %d, want 1", v)
	}
	// An un-instrumented pool recycles just the same but counts nothing.
	bare := New()
	bare.Put(bare.Get(48))
	bare.Get(48)
	if h, m, u := bare.Stats(); h != 0 || m != 0 || u != 0 {
		t.Fatalf("un-instrumented pool counted %d/%d/%d", h, m, u)
	}
}

// Steady-state Get/Put must be allocation-free: this is the pooled cell/SDU
// path's zero-alloc guarantee.
func TestGetPutZeroAlloc(t *testing.T) {
	p := New()
	p.Put(p.Get(9180)) // prime the class
	allocs := testing.AllocsPerRun(1000, func() {
		b := p.Get(9180)
		p.Put(b)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Get/Put allocates %.3f allocs/op, want 0", allocs)
	}
}
