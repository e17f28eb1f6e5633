package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/sim"
)

// TelemetryConfig parameterizes the instrumented reference run.
type TelemetryConfig struct {
	// SDUSize is the fixed packet size driven over the VC.
	SDUSize int
	// Window is the number of packets kept in flight.
	Window int
	// RunTime is the simulated deadline.
	RunTime sim.Duration
	// Loss is the a->b cell-loss probability.
	Loss float64
	// Seed drives fault injection.
	Seed uint64
}

// DefaultTelemetry returns the standard instrumented run: windowed 9180-byte
// SDUs at STS-3c for 20 ms on a lossless fiber.
func DefaultTelemetry() TelemetryConfig {
	return TelemetryConfig{SDUSize: 9180, Window: 4, RunTime: 20 * sim.Millisecond, Seed: 1}
}

// Telemetry runs the fully instrumented datapath: two stations sharing one
// metrics registry and a fixed windowed workload on the a->b connection. It
// returns the registry snapshot plus a latency table (p50/p99/max per
// non-empty histogram) — the reference view of where time goes between the
// transmit descriptor and the receive interrupt.
func Telemetry(ec TelemetryConfig) (metrics.Snapshot, *report.Table) {
	if ec.SDUSize <= 0 {
		ec.SDUSize = 9180
	}
	if ec.Window <= 0 {
		ec.Window = 4
	}
	if ec.RunTime <= 0 {
		ec.RunTime = 20 * sim.Millisecond
	}
	net := build(pair(core.EndpointSpec{Name: "a"}, core.EndpointSpec{Name: "b"},
		core.LinkSpec{Delay: 10_000, LossProb: ec.Loss, Seed: ec.Seed},
		core.VCCSpec{Name: "ab", From: "a", To: "b", VC: stdVC}))
	k := net.Kernel()

	deadline := sim.Time(ec.RunTime)
	src := core.NewSource(net.Endpoint("a"), stdVC, ec.SDUSize, deadline)
	src.Start(ec.Window)
	k.RunUntil(deadline)
	k.Run()

	snap := net.Metrics().Snapshot()
	tb := report.NewTable("Telemetry: datapath latency distributions ("+
		fmt.Sprintf("%dB SDUs, window %d, %v", ec.SDUSize, ec.Window, ec.RunTime)+")",
		"histogram", "count", "p50", "p99", "max")
	for _, h := range snap.Histograms {
		if h.Count == 0 {
			continue
		}
		tb.Row(h.Name, h.Count, sim.Time(h.P50Ns), sim.Time(h.P99Ns), sim.Time(h.MaxNs))
	}
	return snap, tb
}
