package bus

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

func testCfg() Config {
	return Config{WordTime: 40, BurstSetup: 200, MaxBurst: 2048, PIOTime: 600}
}

func TestDMATimeSingleBurst(t *testing.T) {
	k := sim.NewKernel()
	b := New(k, testCfg())
	d := b.Attach("nic")
	// 48 bytes = 12 words: 200 + 12*40 = 680 ns.
	if got := d.DMATime(48); got != 680 {
		t.Fatalf("DMATime(48) = %v, want 680", int64(got))
	}
	// Rounding: 49 bytes = 13 words.
	if got := d.DMATime(49); got != 200+13*40 {
		t.Fatalf("DMATime(49) = %v", int64(got))
	}
	if got := d.DMATime(0); got != 0 {
		t.Fatalf("DMATime(0) = %v, want 0", int64(got))
	}
}

func TestDMATimeBurstSplitting(t *testing.T) {
	k := sim.NewKernel()
	b := New(k, testCfg())
	d := b.Attach("nic")
	// 5000 bytes: bursts of 2048+2048+904 -> setups 3*200, words
	// 512+512+226 = 1250 words * 40.
	want := sim.Duration(3*200 + 1250*40)
	if got := d.DMATime(5000); got != want {
		t.Fatalf("DMATime(5000) = %v, want %v", int64(got), int64(want))
	}
}

func TestDMACompletionTiming(t *testing.T) {
	k := sim.NewKernel()
	b := New(k, testCfg())
	d := b.Attach("nic")
	var done sim.Time = -1
	d.DMA(48, func() { done = k.Now() })
	k.Run()
	if done != 680 {
		t.Fatalf("DMA completed at %v, want 680", int64(done))
	}
}

func TestDMASerializesAcrossDevices(t *testing.T) {
	k := sim.NewKernel()
	b := New(k, testCfg())
	nic := b.Attach("nic")
	host := b.Attach("host")
	var order []string
	nic.DMA(48, func() { order = append(order, "nic") })
	host.DMA(48, func() { order = append(order, "host") })
	k.Run()
	if len(order) != 2 || order[0] != "nic" || order[1] != "host" {
		t.Fatalf("order %v", order)
	}
	if k.Now() != 2*680 {
		t.Fatalf("two serialized DMAs finished at %v, want 1360", int64(k.Now()))
	}
}

func TestBurstSplittingAllowsInterleaving(t *testing.T) {
	// A long transfer split into bursts lets a later-arriving short
	// transaction in between bursts only if it arrives before the later
	// bursts are queued; since DMA queues all bursts at once, a transfer
	// requested afterwards waits. But a transfer requested between two
	// *separate* DMA calls interleaves. Verify FIFO fairness across calls.
	k := sim.NewKernel()
	b := New(k, testCfg())
	nic := b.Attach("nic")
	host := b.Attach("host")
	var order []string
	nic.DMA(2048, func() { order = append(order, "nic1") })
	host.DMA(4, func() { order = append(order, "host") })
	nic.DMA(2048, func() { order = append(order, "nic2") })
	k.Run()
	want := []string{"nic1", "host", "nic2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestPIOCost(t *testing.T) {
	k := sim.NewKernel()
	b := New(k, testCfg())
	host := b.Attach("host")
	var done sim.Time
	host.PIO(3, func() { done = k.Now() })
	k.Run()
	if done != 1800 {
		t.Fatalf("PIO(3) completed at %v, want 1800", int64(done))
	}
}

func TestPIOFarWorseThanDMAPerByte(t *testing.T) {
	// The architectural point: moving a 9180-byte packet by PIO costs
	// ~10x more bus time than by DMA.
	k := sim.NewKernel()
	b := New(k, testCfg())
	d := b.Attach("x")
	dmaT := d.DMATime(9180)
	pioT := sim.Duration(words(9180)) * testCfg().PIOTime
	if pioT < 10*dmaT {
		t.Fatalf("PIO %v not >= 10x DMA %v", int64(pioT), int64(dmaT))
	}
}

func TestZeroLengthTransfersCompleteAsync(t *testing.T) {
	k := sim.NewKernel()
	b := New(k, testCfg())
	d := b.Attach("nic")
	ran := 0
	d.DMA(0, func() { ran++ })
	d.PIO(0, func() { ran++ })
	if ran != 0 {
		t.Fatal("zero-length completion ran synchronously")
	}
	k.Run()
	if ran != 2 {
		t.Fatalf("ran = %d, want 2", ran)
	}
}

func TestDeviceStats(t *testing.T) {
	k := sim.NewKernel()
	b := New(k, testCfg())
	reg := metrics.NewRegistry()
	b.SetMetrics(reg)
	d := b.Attach("nic")
	d.DMA(5000, nil)
	d.PIO(2, nil)
	k.Run()
	if v := reg.Counter("bus.nic.dma_bytes").Value(); v != 5000 {
		t.Errorf("dma_bytes = %d", v)
	}
	if v := reg.Counter("bus.nic.dma_bursts").Value(); v != 3 {
		t.Errorf("dma_bursts = %d, want 3", v)
	}
	if v := reg.Counter("bus.nic.pio_words").Value(); v != 2 {
		t.Errorf("pio_words = %d", v)
	}
	// The device was the bus's only requester, so it held the bus from
	// time 0 until the run drained.
	if busTime := k.Now(); busTime != d.DMATime(5000)+2*600 {
		t.Errorf("bus time = %v", int64(busTime))
	}
}

func TestBusUtilization(t *testing.T) {
	k := sim.NewKernel()
	b := New(k, testCfg())
	d := b.Attach("nic")
	d.DMA(48, nil) // busy 0..680
	k.Run()
	k.RunUntil(1360)
	u := b.res.Utilization()
	if u < 0.49 || u > 0.51 {
		t.Fatalf("utilization = %v, want ~0.5", u)
	}
}

func TestNegativeDMAPanics(t *testing.T) {
	k := sim.NewKernel()
	b := New(k, testCfg())
	d := b.Attach("nic")
	defer func() {
		if recover() == nil {
			t.Fatal("negative DMA did not panic")
		}
	}()
	d.DMA(-1, nil)
}

func TestBadConfigPanics(t *testing.T) {
	k := sim.NewKernel()
	defer func() {
		if recover() == nil {
			t.Fatal("zero word time did not panic")
		}
	}()
	New(k, Config{})
}

func TestUnlimitedBurst(t *testing.T) {
	k := sim.NewKernel()
	cfg := testCfg()
	cfg.MaxBurst = 0
	b := New(k, cfg)
	d := b.Attach("nic")
	// One setup only.
	want := sim.Duration(200 + words(100000)*40)
	if got := d.DMATime(100000); got != want {
		t.Fatalf("DMATime = %v, want %v", int64(got), int64(want))
	}
}

func TestMaxBurstAccessor(t *testing.T) {
	k := sim.NewKernel()
	b := New(k, testCfg())
	d := b.Attach("nic")
	if d.MaxBurst() != 2048 {
		t.Fatalf("MaxBurst = %d", d.MaxBurst())
	}
}
