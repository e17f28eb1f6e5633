// Package bus models the workstation I/O bus the interface sits on — a
// TURBOchannel-class synchronous 32-bit bus.  Everything the adapter moves
// to or from host memory crosses this bus, and bus occupancy is a first-order
// term in the paper's analysis: DMA bursts amortize arbitration and address
// cycles over many words, while programmed I/O pays full price per word,
// which is why the architecture DMAs packets and never makes the host touch
// cells.
package bus

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// Config sets the bus timing. The defaults model TURBOchannel on a
// DECstation 5000/200: 25 MHz, 32-bit words (peak 100 MB/s), a handful of
// cycles of arbitration/address setup per transaction, and expensive
// single-word programmed I/O.
type Config struct {
	// WordTime is the time to move one 32-bit word in a burst.
	WordTime sim.Duration
	// BurstSetup is arbitration + address time paid once per DMA burst.
	BurstSetup sim.Duration
	// MaxBurst is the largest single burst in bytes; longer transfers
	// split into multiple bursts (re-paying setup), letting other
	// requesters in between. 0 means unlimited.
	MaxBurst int
	// PIOTime is the full cost of one programmed-I/O word: the host CPU
	// drives an entire bus transaction for 4 bytes.
	PIOTime sim.Duration
}

// DefaultConfig returns TURBOchannel-class timing: 40 ns/word, 200 ns burst
// setup, 2 KiB max burst, 600 ns per PIO word.
func DefaultConfig() Config {
	return Config{
		WordTime:   40,
		BurstSetup: 200,
		MaxBurst:   2048,
		PIOTime:    600,
	}
}

// Bus is a shared, FIFO-arbitrated word bus.
type Bus struct {
	k    *sim.Kernel
	cfg  Config
	res  *sim.Resource
	devs []*Device
	reg  *metrics.Registry
}

// New creates a bus on kernel k.
func New(k *sim.Kernel, cfg Config) *Bus {
	if cfg.WordTime <= 0 {
		panic("bus: non-positive word time")
	}
	if cfg.PIOTime <= 0 {
		cfg.PIOTime = cfg.WordTime
	}
	return &Bus{k: k, cfg: cfg, res: sim.NewResource(k)}
}

// Config returns the bus timing in force.
func (b *Bus) Config() Config { return b.cfg }

// SetMetrics attaches a telemetry registry: every device (already attached
// or attached later) gets "bus.<device>.dma_bytes", ".dma_bursts" and
// ".pio_words" counters plus a "bus.<device>.grant_wait" histogram of the
// arbitration delay each DMA suffered beyond its own transfer time — the
// bus-contention term in the paper's delay budget.
func (b *Bus) SetMetrics(reg *metrics.Registry) {
	b.reg = reg
	for _, d := range b.devs {
		d.instrument(reg)
	}
}

// Device is a bus requester (the NIC's DMA engine, the host CPU). Each
// device counts its own traffic into the bus's registry (SetMetrics).
type Device struct {
	bus  *Bus
	name string

	// Registry instruments, the device's only counts (nil without
	// SetMetrics; nil-safe).
	mDMABytes  *metrics.Counter
	mDMABursts *metrics.Counter
	mPIOWords  *metrics.Counter
	hGrantWait *metrics.Histogram
}

// Attach registers a named requester.
func (b *Bus) Attach(name string) *Device {
	d := &Device{bus: b, name: name}
	d.instrument(b.reg)
	b.devs = append(b.devs, d)
	return d
}

func (d *Device) instrument(reg *metrics.Registry) {
	d.mDMABytes = reg.Counter("bus." + d.name + ".dma_bytes")
	d.mDMABursts = reg.Counter("bus." + d.name + ".dma_bursts")
	d.mPIOWords = reg.Counter("bus." + d.name + ".pio_words")
	d.hGrantWait = reg.Histogram("bus." + d.name + ".grant_wait")
}

// MaxBurst returns the bus's burst-size limit in bytes (0 = unlimited),
// for callers that chunk their own transfers.
func (d *Device) MaxBurst() int { return d.bus.cfg.MaxBurst }

// words converts a byte count to bus words, rounding up.
func words(n int) int { return (n + 3) / 4 }

// DMATime returns the bus time a transfer of n bytes will occupy, including
// per-burst setup and burst splitting — the deterministic cost the paper's
// throughput budget uses.
func (d *Device) DMATime(n int) sim.Duration {
	if n <= 0 {
		return 0
	}
	cfg := d.bus.cfg
	var t sim.Duration
	for n > 0 {
		chunk := n
		if cfg.MaxBurst > 0 && chunk > cfg.MaxBurst {
			chunk = cfg.MaxBurst
		}
		t += cfg.BurstSetup + sim.Duration(words(chunk))*cfg.WordTime
		n -= chunk
	}
	return t
}

// DMA requests a DMA transfer of n bytes. done runs when the transfer
// completes (after queueing behind earlier transactions). It returns the
// predicted completion time.
//
// A transfer longer than MaxBurst is issued as consecutive bursts; because
// the underlying resource is FIFO, another device's transaction can slip in
// between bursts, which is the fairness property real buses get from
// re-arbitration.
func (d *Device) DMA(n int, done func()) sim.Time {
	if n < 0 {
		panic(fmt.Sprintf("bus: negative DMA length %d", n))
	}
	if n == 0 {
		if done != nil {
			d.bus.k.PostAfter(0, done)
		}
		return d.bus.k.Now()
	}
	cfg := d.bus.cfg
	d.mDMABytes.Add(uint64(n))
	start := d.bus.k.Now()
	transfer := d.DMATime(n)
	var last sim.Time
	for n > 0 {
		chunk := n
		if cfg.MaxBurst > 0 && chunk > cfg.MaxBurst {
			chunk = cfg.MaxBurst
		}
		burst := cfg.BurstSetup + sim.Duration(words(chunk))*cfg.WordTime
		n -= chunk
		final := n == 0
		cb := func() {}
		if final && done != nil {
			cb = done
		}
		d.mDMABursts.Inc()
		last = d.bus.res.Use(burst, cb)
	}
	// Grant wait: how long the transfer sat behind other requesters —
	// total completion latency minus the bus time the transfer itself
	// needed.
	d.hGrantWait.Observe(last - start - transfer)
	return last
}

// PIO performs programmed I/O of n words. done runs at completion.
func (d *Device) PIO(nwords int, done func()) sim.Time {
	if nwords < 0 {
		panic("bus: negative PIO length")
	}
	if nwords == 0 {
		if done != nil {
			d.bus.k.PostAfter(0, done)
		}
		return d.bus.k.Now()
	}
	t := sim.Duration(nwords) * d.bus.cfg.PIOTime
	d.mPIOWords.Add(uint64(nwords))
	return d.bus.res.Use(t, done)
}
