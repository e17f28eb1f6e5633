package experiments

import (
	"repro/internal/aal"
	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/experiments/runner"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/units"
)

// E4Arch names a receive architecture.
type E4Arch string

// The three architectures E4 compares.
const (
	ArchPerPacket E4Arch = "per-packet" // the paper's interface
	ArchPerCell   E4Arch = "per-cell"   // host-SAR baseline
	ArchHardwired E4Arch = "hardwired"  // fixed-function SAR
)

// E4Point is one (architecture, offered load) measurement at the receiver.
type E4Point struct {
	Arch         E4Arch
	OfferedFrac  float64 // of payload line rate
	HostUtil     float64
	DeliveredBps float64
	Interrupts   uint64
}

// E4Config tunes the sweep.
type E4Config struct {
	Loads   []float64 // fractions of payload line rate
	SDUSize int
	RunTime sim.Duration
}

// DefaultE4 sweeps offered load with 1024-byte packets — small enough that
// the per-cell baseline can reassemble them at all (an MTU burst of 192
// line-rate cells overflows its FIFO every time, pinning its curve at
// zero), so its goodput visibly flat-lines while its CPU saturates.
func DefaultE4() E4Config {
	return E4Config{
		Loads:   []float64{0.1, 0.25, 0.5, 0.75, 0.95},
		SDUSize: 1024,
		RunTime: 40 * sim.Millisecond,
	}
}

// E4 measures receive-host CPU utilization and delivered goodput versus
// offered load for the three architectures. Paper shape: the per-cell host
// saturates (utilization → 1, goodput flat-lines) at a small fraction of
// line rate; the per-packet architecture's host cost stays modest to full
// rate; hardwired matches per-packet (the host work is identical — the
// difference is engine flexibility, not host load).
func E4(ec E4Config) ([]E4Point, *report.Series, *report.Series) {
	type e4Case struct {
		arch E4Arch
		load float64
	}
	var cases []e4Case
	for _, arch := range []E4Arch{ArchPerPacket, ArchPerCell, ArchHardwired} {
		for _, load := range ec.Loads {
			cases = append(cases, e4Case{arch, load})
		}
	}
	pts := runner.Map(Parallelism(), len(cases), func(i int) E4Point {
		return runE4(cases[i].arch, cases[i].load, ec)
	})
	x := ec.Loads
	util := report.NewSeries("E4a: receive-host CPU utilization vs offered load",
		"offered-frac", x)
	tput := report.NewSeries("E4b: delivered goodput (Mb/s) vs offered load",
		"offered-frac", x)
	for _, arch := range []E4Arch{ArchPerPacket, ArchPerCell, ArchHardwired} {
		var us, ts []float64
		for _, p := range pts {
			if p.Arch == arch {
				us = append(us, p.HostUtil)
				ts = append(ts, p.DeliveredBps/1e6)
			}
		}
		util.Add(string(arch), us)
		tput.Add(string(arch), ts)
	}
	return pts, util, tput
}

// runE4 offers load at a paced open-loop rate into one receiver.
func runE4(arch E4Arch, load float64, ec E4Config) E4Point {
	net := e4Net(arch, load, ec)
	deadline := sim.Time(ec.RunTime)
	net.RunUntil(deadline)
	// Snapshot everything AT the deadline: the open-loop backlog that
	// would drain afterwards (substantial for the saturated per-cell
	// host) must not be credited as delivered-within-the-window.
	rx := net.Endpoint("rx")
	return E4Point{
		Arch: arch, OfferedFrac: load, HostUtil: rx.Host().Utilization(),
		DeliveredBps: units.ThroughputBps(int64(rx.Stats().Rx.Bytes), deadline),
		Interrupts:   rx.Host().Interrupts(),
	}
}

// e4Net builds E4's pair with arch's receiver and starts the paced sender.
// The receive architecture is what E4 compares, so the per-cell receiver is
// driven by a fully capable (paper-style) sender — otherwise the baseline's
// own host-bound transmit path caps the offered load long before its
// receiver shows anything.
func e4Net(arch E4Arch, load float64, ec E4Config) *core.Network {
	rate := units.STS3cPayload
	// Packet departure interval to hit the target offered load, counting
	// full cell (wire) bytes.
	wireBytes := aal.CellsForSDU5(ec.SDUSize) * atm.CellSize
	interval := sim.Duration(float64(units.TimePerBytes(rate, wireBytes)) / load)

	var tx, rx core.Options
	switch arch {
	case ArchHardwired:
		tx.Arch, rx.Arch = core.Hardwired, core.Hardwired
	case ArchPerCell:
		rx.Arch = core.PerCell
	}
	net := build(pair(
		core.EndpointSpec{Name: "tx", Options: tx},
		core.EndpointSpec{Name: "rx", Options: rx},
		core.LinkSpec{Delay: 10_000, Seed: 9},
		core.VCCSpec{Name: "e4", From: "tx", To: "rx", VC: stdVC}))
	pace(net.Kernel(), net.Endpoint("tx"), interval, ec.SDUSize, sim.Time(ec.RunTime))
	return net
}

// pace sends fixed-size packets at fixed intervals (open loop).
func pace(k *sim.Kernel, tx *core.Endpoint, interval sim.Duration, size int, deadline sim.Time) {
	payload := make([]byte, size)
	var tick func()
	tick = func() {
		if k.Now() > deadline {
			return
		}
		tx.Send(stdVC, payload, nil)
		k.After(interval, tick)
	}
	tick()
}
