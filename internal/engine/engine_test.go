package engine

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/units"
)

func test25MHz() Config {
	return Config{ClockHz: 25_000_000, CPIMilli: 1000, DispatchInstr: 0}
}

func TestInstrTimeExact(t *testing.T) {
	k := sim.NewKernel()
	e := New(k, test25MHz())
	// 25 MHz, CPI 1: one instruction = 40 ns.
	if got := e.InstrTime(1); got != 40 {
		t.Fatalf("InstrTime(1) = %v, want 40", int64(got))
	}
	if got := e.InstrTime(50); got != 2000 {
		t.Fatalf("InstrTime(50) = %v, want 2000", int64(got))
	}
	if got := e.InstrTime(0); got != 0 {
		t.Fatalf("InstrTime(0) = %v, want 0", int64(got))
	}
}

func TestInstrTimeRoundsUp(t *testing.T) {
	k := sim.NewKernel()
	e := New(k, Config{ClockHz: 30_000_000, CPIMilli: 1000})
	// 1 instr at 30 MHz = 33.33 ns -> 34.
	if got := e.InstrTime(1); got != 34 {
		t.Fatalf("InstrTime(1)@30MHz = %v, want 34", int64(got))
	}
}

func TestCPIScaling(t *testing.T) {
	k := sim.NewKernel()
	e := New(k, Config{ClockHz: 25_000_000, CPIMilli: 1500})
	// 10 instr * 1.5 CPI = 15 cycles = 600 ns.
	if got := e.InstrTime(10); got != 600 {
		t.Fatalf("InstrTime = %v, want 600", int64(got))
	}
}

func TestRoutineTimeAddsDispatch(t *testing.T) {
	k := sim.NewKernel()
	cfg := test25MHz()
	cfg.DispatchInstr = 10
	e := New(k, cfg)
	if got := e.RoutineTime(40); got != e.InstrTime(50) {
		t.Fatalf("RoutineTime(40) = %v, want %v", got, e.InstrTime(50))
	}
}

func TestRunSerializesRoutines(t *testing.T) {
	k := sim.NewKernel()
	e := New(k, test25MHz())
	var done []sim.Time
	e.Run(25, func() { done = append(done, k.Now()) }) // 1000 ns
	e.Run(25, func() { done = append(done, k.Now()) })
	k.Run()
	if len(done) != 2 || done[0] != 1000 || done[1] != 2000 {
		t.Fatalf("completions %v, want [1000 2000]", done)
	}
}

func TestRoutineStats(t *testing.T) {
	k := sim.NewKernel()
	cfg := test25MHz()
	cfg.DispatchInstr = 10
	e := New(k, cfg)
	reg := metrics.NewRegistry()
	e.Instrument(reg, "b.engine.rx")
	e.Run(30, nil)
	e.Run(30, nil)
	e.Run(50, nil)
	k.Run()
	// Every activation counts once and is charged its dispatch overhead.
	if got := reg.Counter("b.engine.rx.routines").Value(); got != 3 {
		t.Fatalf("routines = %d, want 3", got)
	}
	if got := reg.Counter("b.engine.rx.instr").Value(); got != 30+30+50+3*10 {
		t.Fatalf("instr = %d, want 140", got)
	}
	wantBusy := 2*e.RoutineTime(30) + e.RoutineTime(50)
	if got := reg.Counter("b.engine.rx.busy_ns").Value(); got != uint64(wantBusy) {
		t.Fatalf("busy_ns = %d, want %d", got, wantBusy)
	}
	// The queue gauge samples the routines waiting behind the one in
	// service when each Run is issued: 0, 0, then 1.
	if got := reg.Gauge("b.engine.rx.qlen").Max(); got != 1 {
		t.Fatalf("qlen watermark = %d, want 1", got)
	}
}

func TestUtilization(t *testing.T) {
	k := sim.NewKernel()
	e := New(k, test25MHz())
	e.Run(25, nil) // 1000 ns busy
	k.Run()
	k.RunUntil(2000)
	u := e.Utilization()
	if u < 0.49 || u > 0.51 {
		t.Fatalf("utilization %v, want ~0.5", u)
	}
}

// The paper's headline numbers: a 25 MHz engine running ~50-instruction
// per-cell firmware fits comfortably inside the 155 Mb/s cell time but NOT
// inside the 622 Mb/s cell time.
func TestHeadroomPaperShape(t *testing.T) {
	k := sim.NewKernel()
	e := New(k, DefaultConfig())
	perCell := 45 // representative receive per-cell instruction count
	h155 := headroom(e, perCell, units.CellTime(units.STS3cPayload))
	h622 := headroom(e, perCell, units.CellTime(units.STS12cPayload))
	if h155 <= 1.0 {
		t.Fatalf("headroom at 155 Mb/s = %v, want > 1 (engine keeps up)", h155)
	}
	if h622 >= 1.0 {
		t.Fatalf("headroom at 622 Mb/s = %v, want < 1 (engine is the bottleneck)", h622)
	}
}

func TestHeadroomScalesWithClock(t *testing.T) {
	k := sim.NewKernel()
	slow := New(k, Config{ClockHz: 25_000_000, CPIMilli: 1000})
	fast := New(k, Config{ClockHz: 66_000_000, CPIMilli: 1000})
	ct := units.CellTime(units.STS12cPayload)
	if headroom(fast, 45, ct) <= headroom(slow, 45, ct) {
		t.Fatal("faster clock did not increase headroom")
	}
}

// headroom is cellTime over the time one routine of instr instructions
// occupies e: above 1 the engine keeps up at line rate, below 1 it is the
// bottleneck.
func headroom(e *Engine, instr int, cellTime sim.Duration) float64 {
	return float64(cellTime) / float64(e.RoutineTime(instr))
}

func TestNegativeInstrPanics(t *testing.T) {
	k := sim.NewKernel()
	e := New(k, test25MHz())
	defer func() {
		if recover() == nil {
			t.Fatal("negative instr did not panic")
		}
	}()
	e.InstrTime(-1)
}

func TestZeroClockPanics(t *testing.T) {
	k := sim.NewKernel()
	defer func() {
		if recover() == nil {
			t.Fatal("zero clock did not panic")
		}
	}()
	New(k, Config{})
}

func TestDefaultCPIApplied(t *testing.T) {
	k := sim.NewKernel()
	e := New(k, Config{ClockHz: 25_000_000})
	if e.cfg.CPIMilli != 1000 {
		t.Fatalf("default CPI = %d, want 1000", e.cfg.CPIMilli)
	}
}

// RoutineTime's per-count table holds exactly the division it replaces,
// on its first use and after, for every count up to well past the table,
// on the default engine and on two odd clock/CPI/dispatch settings.
func TestRoutineTimeMatchesDivision(t *testing.T) {
	for _, cfg := range []Config{
		DefaultConfig(),
		{ClockHz: 33_333_333, CPIMilli: 1337, DispatchInstr: 7},
		{ClockHz: 7_000_001, CPIMilli: 999, DispatchInstr: 0},
	} {
		e := New(sim.NewKernel(), cfg)
		for pass := 0; pass < 2; pass++ {
			for instr := 0; instr <= 300; instr++ {
				if got, want := e.RoutineTime(instr), e.InstrTime(instr+cfg.DispatchInstr); got != want {
					t.Fatalf("%+v pass %d: RoutineTime(%d) = %d, want InstrTime(%d) = %d",
						cfg, pass, instr, got, instr+cfg.DispatchInstr, want)
				}
			}
		}
	}
}

// A firmware routine costs no allocation: its completion event carries the
// done callback, and its time comes from the routine table.
func TestRunAllocatesNothing(t *testing.T) {
	k := sim.NewKernel()
	e := New(k, DefaultConfig())
	n := 0
	done := func() { n++ }
	allocs := testing.AllocsPerRun(100, func() {
		for instr := 0; instr < 64; instr += 7 {
			e.Run(instr, done)
		}
		k.Run()
	})
	if allocs != 0 {
		t.Fatalf("Engine.Run allocates %v per batch of routines, want 0", allocs)
	}
	if n != 101*10 {
		t.Fatalf("%d completions ran, want %d", n, 101*10)
	}
}
