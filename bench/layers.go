package bench

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
)

// decl is one declared metric.
type decl struct{ name, unit string }

// perLayer lists every metric the traced run reports, in BENCHMARK.json
// order.
var perLayer = func() []decl {
	d := []decl{{"core.new_network.ns", "ns"}, {"core.add_vcc.ns", "ns"}}
	for l := layer(0); l < numReported; l++ {
		d = append(d, decl{layerNames[l] + ".calls", "count"}, decl{layerNames[l] + ".ns_per_call", "ns"})
	}
	for _, p := range append(append([]string(nil), cpuPkgs...), cpuRest...) {
		d = append(d, decl{"cpu." + p, "frac"})
	}
	for _, p := range allocPkgs {
		d = append(d, decl{"alloc." + p, "1"})
	}
	return append(d,
		decl{"gc.cycles_per_mcell_hop", "1"}, decl{"gc.pause_ns_per_cell_hop", "ns"},
		decl{"sim.post_near_ns", "ns"}, decl{"sim.post_far_ns", "ns"},
		decl{"crc.hec_ns", "ns"}, decl{"crc.crc32_ns_per_cell", "ns"}, decl{"atm.header_decode_ns", "ns"},
		decl{"aal.segment5_ns_per_cell", "ns"}, decl{"aal.reassemble5_ns_per_cell", "ns"},
		decl{"sonet.frame_ns", "ns"}, decl{"sonet.deframe_ns", "ns"}, decl{"tm.gcra_ns", "ns"},
		decl{"fifo.push_pop_ns", "ns"}, decl{"vclookup.cam_ns", "ns"},
		decl{"sim.events_per_cell_hop", "1"}, decl{"sdu.cells_per_sdu", "1"}, decl{"netsim.drop_frac", "frac"},
		decl{"tcp.retx_frac", "frac"}, decl{"sonetlink.frame_error_frac", "frac"},
		decl{"nic.rx_aal_error_frac", "frac"},
		decl{"sim.group.speedup_default2", "x"}, decl{"sim.group.speedup_islands2", "x"},
		decl{"trace.overhead_frac", "frac"},
	)
}()

// maxTraceEvents caps the spans kept for the Chrome trace export.
const maxTraceEvents = 50_000

// Trace is the traced run. It splits cfg.Seconds in three phases: a quarter
// for untraced reps (the baseline for trace.overhead_frac and the GC rows),
// a quarter for reps with a timing shim on every CellPort boundary, and half
// for reps under the CPU and allocation profilers, whose 100 Hz sampling
// needs the time. Leaf microbenchmarks and, where the workload
// declares partitions, the sharded-kernel comparison follow. The returned
// Tracer holds the first shimmed rep's spans for WriteChromeTrace.
func Trace(w *Workload, cfg Config) (*Result, *Tracer, error) {
	res := &Result{Workload: w.Name}
	vals := map[string]float64{}
	_, newNet, addVCC, err := setupSamples(w, cfg, cfg.SetupSamples)
	if err != nil {
		return nil, nil, err
	}
	_, vals["core.new_network.ns"], _ = quartiles(newNet)
	_, vals["core.add_vcc.ns"], _ = quartiles(addVCC)
	warmUp(w, cfg, res)

	base := reps(w, cfg, res, cfg.Seconds/4, cfg.MinReps, probes{})
	tr := newTracer(maxTraceEvents)
	n0 := res.Attempted
	shimmed := reps(w, cfg, res, cfg.Seconds/4, cfg.MinReps, probes{tr: tr})
	shimReps := res.Attempted - n0
	prof := newProfiler()
	rate := runtime.MemProfileRate
	runtime.MemProfileRate = memProfileRate
	profiled := reps(w, cfg, res, cfg.Seconds/2, 1, probes{prof: prof})
	runtime.MemProfileRate = rate
	if len(base) == 0 || len(shimmed) == 0 || len(profiled) == 0 {
		return res, tr, nil
	}

	for l := layer(0); l < numReported; l++ {
		a := tr.agg[l]
		vals[layerNames[l]+".calls"] = float64(a.calls) / float64(shimReps)
		vals[layerNames[l]+".ns_per_call"] = ratio(float64(a.self), float64(a.calls))
	}
	if prof.samples == 0 {
		res.fail(fmt.Errorf("the CPU profile recorded no samples"))
	}
	for _, row := range append(append([]string(nil), cpuPkgs...), cpuRest...) {
		vals["cpu."+row] = ratio(float64(prof.cpu[row]), float64(prof.samples))
	}
	var profHops float64
	for _, r := range profiled {
		profHops += float64(r.c.cellHops)
	}
	for _, p := range allocPkgs {
		vals["alloc."+p] = prof.allocs[p] / profHops
	}
	_, vals["gc.cycles_per_mcell_hop"], _ = quartiles(perRep(base, func(r rep) float64 {
		return 1e6 * float64(r.gcCycles) / float64(r.c.cellHops)
	}))
	_, vals["gc.pause_ns_per_cell_hop"], _ = quartiles(perRep(base, func(r rep) float64 {
		return float64(r.gcPauseNs) / float64(r.c.cellHops)
	}))

	c := base[0].c
	vals["sim.events_per_cell_hop"] = ratio(float64(c.events), float64(c.cellHops))
	vals["sdu.cells_per_sdu"] = ratio(float64(c.rxCells), float64(c.sdus))
	vals["netsim.drop_frac"] = ratio(float64(c.swDropped), float64(c.swRouted+c.swDropped))
	vals["tcp.retx_frac"] = ratio(float64(c.tcpRetx), float64(c.tcpSegs+c.tcpRetx))
	vals["sonetlink.frame_error_frac"] = ratio(float64(c.frameErrors), float64(c.frames))
	vals["nic.rx_aal_error_frac"] = ratio(float64(c.aalErrors), float64(c.aalErrors+c.sdus))

	leafMetrics(w, vals)
	if err := shardSpeedups(w, cfg, vals); err != nil {
		res.fail(err)
	}

	nsPerHop := func(r rep) float64 { return float64(r.wallNs) / float64(r.c.cellHops) }
	_, traced, _ := quartiles(perRep(shimmed, nsPerHop))
	_, plain, _ := quartiles(perRep(base, nsPerHop))
	vals["trace.overhead_frac"] = traced/plain - 1

	for _, d := range perLayer {
		v, ok := vals[d.name]
		if !ok {
			return nil, nil, fmt.Errorf("per-layer metric %q was not measured", d.name)
		}
		delete(vals, d.name)
		res.Metrics = append(res.Metrics, Metric{Name: d.name, Unit: d.unit, Value: v, Q1: v, Median: v, Q3: v, N: 1})
	}
	for name := range vals {
		return nil, nil, fmt.Errorf("metric %q is not declared", name)
	}
	return res, tr, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func perRep(rs []rep, f func(rep) float64) []float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return xs
}

// shardReps is how many runs each sharding configuration gets; the
// comparison is a diagnostic, not an end-to-end metric.
const shardReps = 3

// shardSpeedups compares the serial Run of a workload that declares
// partitions with a two-shard build under the default planner and with its
// explicit partitions, and checks the sharded runs deliver what the serial
// one does. Workloads without partitions report 0.
func shardSpeedups(w *Workload, cfg Config, vals map[string]float64) error {
	vals["sim.group.speedup_default2"], vals["sim.group.speedup_islands2"] = 0, 0
	if w.partitions == nil {
		return nil
	}
	timeRun := func(shard func(*core.NetworkSpec)) (float64, uint64, error) {
		var wall []float64
		var sdus uint64
		for i := 0; i < shardReps; i++ {
			r, err := w.newRig(cfg.Seed, cfg.Scale, shard)
			if err != nil {
				return 0, 0, err
			}
			runtime.GC()
			t0 := time.Now()
			r.net.Run()
			wall = append(wall, time.Since(t0).Seconds())
			err = r.verify()
			sdus = r.counts().sdus
			r.net.Close()
			if err != nil {
				return 0, 0, err
			}
		}
		_, med, _ := quartiles(wall)
		return med, sdus, nil
	}
	serial, want, err := timeRun(nil)
	if err != nil {
		return err
	}
	for _, c := range []struct {
		metric string
		shard  func(*core.NetworkSpec)
	}{
		{"sim.group.speedup_default2", func(s *core.NetworkSpec) { s.Shards = 2 }},
		{"sim.group.speedup_islands2", func(s *core.NetworkSpec) { s.Partitions = w.partitions }},
	} {
		t, sdus, err := timeRun(c.shard)
		if err != nil {
			return fmt.Errorf("%s: %w", c.metric, err)
		}
		if sdus != want {
			return fmt.Errorf("%s: sharded run delivered %d SDUs, serial %d", c.metric, sdus, want)
		}
		vals[c.metric] = serial / t
	}
	return nil
}
