package host

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func testCfg() Config {
	return Config{
		InstrRate:         25_000_000,
		InterruptEntry:    120,
		InterruptExit:     80,
		DriverRxPacket:    200,
		DriverTxPacket:    250,
		DriverRxCell:      90,
		StackPerPacket:    450,
		StackPerByteMilli: 500,
	}
}

func TestInstrTime(t *testing.T) {
	k := sim.NewKernel()
	h := New(k, testCfg())
	// 25 instructions at 25 MIPS = 1 µs.
	if got := h.InstrTime(25); got != 1000 {
		t.Fatalf("InstrTime(25) = %v, want 1000", int64(got))
	}
	if got := h.InstrTime(0); got != 0 {
		t.Fatalf("InstrTime(0) = %v", int64(got))
	}
}

// TestInstrTimeMatchesDivision holds InstrTime to the rounded-up division
// at rates that divide 1e9, where it multiplies instead, and at rates that
// do not.
func TestInstrTimeMatchesDivision(t *testing.T) {
	div := func(rate int64, instr int) sim.Duration {
		if instr <= 0 {
			return 0
		}
		return sim.Duration((int64(instr)*1_000_000_000 + rate - 1) / rate)
	}
	counts := []int{-1, 1 << 20, 1 << 30, math.MaxInt32}
	for i := 0; i <= 10_000; i++ {
		counts = append(counts, i)
	}
	for _, rate := range []int64{25_000_000, 1_000_000_000, 33_333_333, 7} {
		cfg := testCfg()
		cfg.InstrRate = rate
		h := New(sim.NewKernel(), cfg)
		for _, n := range counts {
			if got, want := h.InstrTime(n), div(rate, n); got != want {
				t.Fatalf("rate %d: InstrTime(%d) = %d, want %d", rate, n, got, want)
			}
		}
	}
}

func TestInterruptChargesEntryAndExit(t *testing.T) {
	k := sim.NewKernel()
	h := New(k, testCfg())
	var done sim.Time
	h.Interrupt(100, func() { done = k.Now() })
	k.Run()
	// 120+100+80 = 300 instr = 12 µs.
	if done != 12000 {
		t.Fatalf("interrupt completed at %v, want 12000", int64(done))
	}
	if h.Interrupts() != 1 {
		t.Fatalf("Interrupts() = %d", h.Interrupts())
	}
}

func TestRxPacketCost(t *testing.T) {
	k := sim.NewKernel()
	h := New(k, testCfg())
	var done sim.Time
	h.RxPacketInterrupt(9180, func() { done = k.Now() })
	k.Run()
	// entry+exit 200, driver 200, stack 450, bytes 4590 -> 5440 instr.
	if want := sim.Time(h.InstrTime(5440)); done != want {
		t.Fatalf("rx completed at %v, want %v (5440 instr)", done, want)
	}
	if h.Interrupts() != 1 {
		t.Fatalf("Interrupts() = %d", h.Interrupts())
	}
}

func TestPerCellPathFarCostlierPerPacket(t *testing.T) {
	// The E4 argument at unit scale: receiving one 9180-byte packet as
	// 192 per-cell interrupts costs >10x the per-packet path.
	k := sim.NewKernel()
	perPacket := New(k, testCfg())
	perCell := New(k, testCfg())
	var pp, pc sim.Time
	perPacket.RxPacketInterrupt(9180, func() { pp = k.Now() })
	for i := 0; i < 192; i++ {
		perCell.RxCellInterrupt(48, i == 191, func() { pc = k.Now() })
	}
	k.Run()
	if pc < 10*pp {
		t.Fatalf("per-cell path busy until %v, not >= 10x per-packet %v", pc, pp)
	}
}

func TestTxPacketNoInterrupt(t *testing.T) {
	k := sim.NewKernel()
	h := New(k, testCfg())
	var done sim.Time
	h.TxPacket(1000, func() { done = k.Now() })
	k.Run()
	if h.Interrupts() != 0 {
		t.Fatal("TxPacket took an interrupt")
	}
	// driver 250 + stack 450 + 500 = 1200.
	if want := sim.Time(h.InstrTime(1200)); done != want {
		t.Fatalf("tx completed at %v, want %v (1200 instr)", done, want)
	}
}

func TestTxCompleteInterrupt(t *testing.T) {
	k := sim.NewKernel()
	h := New(k, testCfg())
	h.TxCompleteInterrupt(nil)
	k.Run()
	if h.Interrupts() != 1 {
		t.Fatal("no interrupt recorded")
	}
}

func TestCPUSerializesWork(t *testing.T) {
	k := sim.NewKernel()
	h := New(k, testCfg())
	var order []string
	h.Work(25, func() { order = append(order, "app") })      // 1 µs
	h.Interrupt(50, func() { order = append(order, "irq") }) // queued behind
	k.Run()
	if len(order) != 2 || order[0] != "app" || order[1] != "irq" {
		t.Fatalf("order %v", order)
	}
}

func TestUtilization(t *testing.T) {
	k := sim.NewKernel()
	h := New(k, testCfg())
	h.Work(25, nil) // 1 µs busy
	k.Run()
	k.RunUntil(2000)
	u := h.Utilization()
	if u < 0.49 || u > 0.51 {
		t.Fatalf("utilization %v", u)
	}
}

func TestPerByteCostRoundsUp(t *testing.T) {
	k := sim.NewKernel()
	h := New(k, testCfg())
	var done sim.Time
	h.RxPacketInterrupt(1, func() { done = k.Now() }) // 0.5 instr of byte cost -> 1
	k.Run()
	// 200+200+450+1 = 851.
	if want := sim.Time(h.InstrTime(851)); done != want {
		t.Fatalf("completed at %v, want %v (851 instr)", done, want)
	}
}

func TestZeroRatePanics(t *testing.T) {
	k := sim.NewKernel()
	defer func() {
		if recover() == nil {
			t.Fatal("zero instr rate did not panic")
		}
	}()
	New(k, Config{})
}

func TestDefaultConfigSane(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.InstrRate <= 0 || cfg.InterruptEntry <= 0 || cfg.StackPerPacket <= 0 {
		t.Fatalf("default config has zero fields: %+v", cfg)
	}
}

func TestSpinChargesWallTime(t *testing.T) {
	k := sim.NewKernel()
	h := New(k, testCfg())
	var done sim.Time
	h.Spin(8400, func() { done = k.Now() })
	k.Run()
	// 8.4 µs at 25 MIPS = 210 instructions; InstrTime(210) = 8.4 µs.
	if done != 8400 || done != sim.Time(h.InstrTime(210)) {
		t.Fatalf("spin completed at %v, want 8400", int64(done))
	}
}

func TestSpinMinimumOneInstr(t *testing.T) {
	k := sim.NewKernel()
	h := New(k, testCfg())
	var done sim.Time
	h.Spin(1, func() { done = k.Now() }) // less than one instruction of wall time
	k.Run()
	if want := sim.Time(h.InstrTime(1)); done != want {
		t.Fatalf("spin completed at %v, want %v (one instruction)", done, want)
	}
}
