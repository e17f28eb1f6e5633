// Package repro's root tests pin what disabled tracing costs on the full
// SONET path.
package repro

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/bus"
	"repro/internal/host"
	"repro/internal/nic"
	"repro/internal/sim"
	"repro/internal/sonet"
	"repro/internal/sonetlink"
	"repro/internal/trace"
)

// sonetWorld is two interfaces joined by an STS-3c SONET path, kept alive
// between exchanges so the steady-state datapath can be measured without
// rebuild costs.
type sonetWorld struct {
	k    *sim.Kernel
	a, b *nic.Interface
	vc   atm.VC
	rec  *trace.Recorder
}

// newSonetWorld builds the two-interface SONET world. When attach is true,
// a flight recorder is wired to every hop and then disabled — the
// configuration whose cost must be indistinguishable from no recorder.
func newSonetWorld(tb testing.TB, attach bool) *sonetWorld {
	k := sim.NewKernel()
	w := &sonetWorld{k: k, vc: atm.VC{VCI: 9}}
	if attach {
		w.rec = trace.NewRecorder(k, 1<<16)
	}
	mk := func(name string) *nic.Interface {
		cfg := nic.DefaultConfig(name)
		cfg.RxFifoDepth = 128
		iface, err := nic.New(k, cfg, host.New(k, host.DefaultConfig()), bus.New(k, bus.DefaultConfig()), atm.NewPool(0))
		if err != nil {
			tb.Fatal(err)
		}
		return iface
	}
	w.a, w.b = mk("a"), mk("b")
	lcfg := sonetlink.Config{Rate: sonet.STS3c, Delay: 10_000, Recorder: w.rec}
	if _, err := sonetlink.Connect(k, lcfg, w.a, w.b); err != nil {
		tb.Fatal(err)
	}
	if attach {
		w.a.SetRecorder(w.rec)
		w.b.SetRecorder(w.rec)
		w.rec.Enable(false)
	}
	w.a.OpenVC(w.vc)
	w.b.OpenVC(w.vc)
	return w
}

var mtuPayload = make([]byte, 9180)

// exchange pushes five MTU packets end to end and drains the kernel. The
// payload buffer is shared (the datapath only reads it), so the measured
// work is the pipeline, not payload allocation.
func (w *sonetWorld) exchange(tb testing.TB) {
	delivered := 0
	w.b.OnReceive(func(nic.Delivered) { delivered++ })
	for j := 0; j < 5; j++ {
		w.a.Send(w.vc, mtuPayload, nil)
	}
	w.k.Run()
	if delivered != 5 {
		tb.Fatalf("delivered %d of 5", delivered)
	}
}

// TestTraceDisabledZeroAllocs pins the nil-safe instrument discipline for
// the recorder: a datapath with spans attached but recording disabled
// allocates exactly as much per steady-state exchange as one that never saw
// a recorder. (The count is nonzero — the frame link copies each frame —
// but it must be the SAME nonzero.)
func TestTraceDisabledZeroAllocs(t *testing.T) {
	base := newSonetWorld(t, false)
	traced := newSonetWorld(t, true)
	// One warm-up exchange each: pools fill, lazy maps settle.
	base.exchange(t)
	traced.exchange(t)
	baseAllocs := testing.AllocsPerRun(5, func() { base.exchange(t) })
	tracedAllocs := testing.AllocsPerRun(5, func() { traced.exchange(t) })
	if tracedAllocs != baseAllocs {
		t.Fatalf("disabled tracing changes allocations: %.1f without recorder, %.1f with (want equal)",
			baseAllocs, tracedAllocs)
	}
}

// BenchmarkTraceDisabledOverhead guards the ≤2%-ns/op budget for fully
// disabled tracing on the SONET path: the per-hop cost must be one pointer
// test. Both variants run interleaved min-of-N in the same process, so the
// comparison cancels machine noise; the benchmark fails if the traced-but-
// disabled world's best exchange is more than 2% slower.
func BenchmarkTraceDisabledOverhead(b *testing.B) {
	base := newSonetWorld(b, false)
	traced := newSonetWorld(b, true)
	base.exchange(b)
	traced.exchange(b)
	one := func(w *sonetWorld) time.Duration {
		t0 := time.Now()
		w.exchange(b)
		return time.Since(t0)
	}
	var baseBest, tracedBest time.Duration
	for i := 0; i < b.N; i++ {
		baseBest, tracedBest = time.Duration(1<<62), time.Duration(1<<62)
		// Paired rounds, alternating order, GC normalized before each pair:
		// min-of-N cancels scheduler and heap-layout noise that dwarfs the
		// one-pointer-test cost under measurement.
		for round := 0; round < 40; round++ {
			runtime.GC()
			var db, dt time.Duration
			if round%2 == 0 {
				db, dt = one(base), one(traced)
			} else {
				dt, db = one(traced), one(base)
			}
			if db < baseBest {
				baseBest = db
			}
			if dt < tracedBest {
				tracedBest = dt
			}
		}
	}
	ratio := float64(tracedBest) / float64(baseBest)
	b.ReportMetric((ratio-1)*100, "overhead-%")
	if ratio > 1.02 {
		b.Fatalf("disabled tracing costs %.1f%% ns/op (budget 2%%): base %v, traced %v",
			(ratio-1)*100, baseBest, tracedBest)
	}
}
