// Package repro's root benchmarks regenerate every reconstructed table and
// figure (E1..E20; see DESIGN.md) under `go test -bench`. Each benchmark
// runs the corresponding experiment core and reports its headline numbers
// as custom metrics, so `go test -bench=. -benchmem | tee bench_output.txt`
// is the whole evaluation.
package repro

import (
	"flag"
	"fmt"
	"testing"

	"repro/internal/aal"
	"repro/internal/atm"
	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/host"
	"repro/internal/netsim"
	"repro/internal/nic"
	"repro/internal/sim"
	"repro/internal/sonet"
	"repro/internal/sonetlink"
	"repro/internal/units"
)

// -shards mirrors atmbench's flag for the experiment benchmarks whose
// topologies the partitioner can cut (E16): `go test -bench=E16 . -shards=4`
// runs the tandem chain on a 4-way sharded kernel. Results are pinned
// bit-identical to serial by the golden tests, so this only moves time.
var benchShards = flag.Int("shards", 1, "intra-run partition count for shardable experiment benchmarks")

// BenchmarkE1TxSegmentation regenerates the transmit firmware budget table.
func BenchmarkE1TxSegmentation(b *testing.B) {
	var rows []experiments.E1Row
	for i := 0; i < b.N; i++ {
		rows, _ = experiments.E1(engine.DefaultConfig())
	}
	for _, r := range rows {
		if r.AAL == aal.AAL5 && r.Routine == "tx_cell (mid)" {
			b.ReportMetric(r.Frac155, "midcell-x155")
			b.ReportMetric(r.Frac622, "midcell-x622")
		}
	}
}

// BenchmarkE2RxReassembly regenerates the receive firmware budget table.
func BenchmarkE2RxReassembly(b *testing.B) {
	var rows []experiments.E2Row
	for i := 0; i < b.N; i++ {
		rows, _ = experiments.E2(engine.DefaultConfig())
	}
	for _, r := range rows {
		if r.AAL == aal.AAL5 && r.Lookup == "cam" && r.Buffers.String() == "paged" {
			b.ReportMetric(r.Frac155, "rxcell-x155")
			b.ReportMetric(r.Frac622, "rxcell-x622")
		}
	}
}

// BenchmarkE3Throughput regenerates the goodput-vs-size figure (reduced
// sweep per iteration; the full sweep is cmd/atmbench -exp e3).
func BenchmarkE3Throughput(b *testing.B) {
	ec := experiments.E3Config{
		Sizes:   []int{64, 9180, 65535},
		RunTime: 10 * sim.Millisecond,
		Window:  4,
	}
	var pts []experiments.E3Point
	for i := 0; i < b.N; i++ {
		pts, _, _ = experiments.E3(ec)
	}
	var got155, got622 bool
	for _, p := range pts {
		if p.Rate == units.STS3cPayload && p.AAL == aal.AAL5 && p.Size == 9180 {
			b.ReportMetric(p.GoodputBps/1e6, "mtu155-Mbps")
			got155 = p.GoodputBps > 0
		}
		if p.Rate == units.STS12cPayload && p.AAL == aal.AAL5 && p.Size == 9180 {
			b.ReportMetric(p.GoodputBps/1e6, "mtu622-Mbps")
			got622 = p.GoodputBps > 0
		}
	}
	// A zero MTU goodput is a broken measurement rig, not a result — the
	// 622 column silently reported 0 for several releases because the
	// receive FIFO overflowed and every frame failed its CRC.
	if !got155 || !got622 {
		b.Fatalf("MTU goodput measured as zero (155 ok=%v, 622 ok=%v)", got155, got622)
	}
}

// BenchmarkE4HostLoad regenerates the host-utilization figure.
func BenchmarkE4HostLoad(b *testing.B) {
	ec := experiments.E4Config{
		Loads:   []float64{0.25, 0.75},
		SDUSize: 9180,
		RunTime: 15 * sim.Millisecond,
	}
	var pts []experiments.E4Point
	for i := 0; i < b.N; i++ {
		pts, _, _ = experiments.E4(ec)
	}
	for _, p := range pts {
		if p.OfferedFrac == 0.75 {
			switch p.Arch {
			case experiments.ArchPerPacket:
				b.ReportMetric(p.HostUtil, "perpkt-util@75")
			case experiments.ArchPerCell:
				b.ReportMetric(p.HostUtil, "percell-util@75")
			}
		}
	}
}

// BenchmarkE5Latency regenerates the latency-breakdown table.
func BenchmarkE5Latency(b *testing.B) {
	var rows []experiments.E5Row
	for i := 0; i < b.N; i++ {
		rows, _ = experiments.E5()
	}
	for _, r := range rows {
		if r.Size == 9180 {
			b.ReportMetric(float64(r.Measured)/1000, "mtu-latency-us")
		}
	}
}

// BenchmarkE6Lookup regenerates the VC-lookup figure.
func BenchmarkE6Lookup(b *testing.B) {
	var pts []experiments.E6Point
	for i := 0; i < b.N; i++ {
		pts, _ = experiments.E6(nil)
	}
	for _, p := range pts {
		if p.VCs == 256 {
			switch p.Strategy {
			case "cam":
				b.ReportMetric(p.AvgCycles, "cam-cyc@256")
			case "linear":
				b.ReportMetric(p.AvgCycles, "linear-cyc@256")
			}
		}
	}
}

// BenchmarkE7BufMgr regenerates the buffer-organization table.
func BenchmarkE7BufMgr(b *testing.B) {
	var rows []experiments.E7Row
	for i := 0; i < b.N; i++ {
		rows, _ = experiments.E7()
	}
	for _, r := range rows {
		if r.FrameCells == 196 {
			switch r.Org.String() {
			case "contig":
				b.ReportMetric(float64(r.LocalBytes), "contig-B@196c")
			case "paged":
				b.ReportMetric(float64(r.LocalBytes), "paged-B@196c")
			}
		}
	}
}

// BenchmarkE8Loss regenerates the loss-sensitivity figure (reduced sweep).
func BenchmarkE8Loss(b *testing.B) {
	ec := experiments.E8Config{
		LossProbs: []float64{1e-4, 1e-2},
		Sizes:     []int{9180},
		RunTime:   15 * sim.Millisecond,
	}
	var pts []experiments.E8Point
	for i := 0; i < b.N; i++ {
		pts, _ = experiments.E8(ec)
	}
	for _, p := range pts {
		if p.LossProb == 1e-2 {
			b.ReportMetric(p.DeliveredFrac, "frac@1e-2")
		}
	}
}

// BenchmarkE9Fifo regenerates the FIFO-sizing figure (two depths).
func BenchmarkE9Fifo(b *testing.B) {
	var pts []experiments.E9Point
	for i := 0; i < b.N; i++ {
		pts, _ = experiments.E9([]int{16, 192}, 10*sim.Millisecond)
	}
	b.ReportMetric(float64(pts[0].FifoDrops), "drops@16")
	b.ReportMetric(float64(pts[1].FifoDrops), "drops@192")
}

// BenchmarkE10Headroom regenerates the engine-clock headroom figure.
func BenchmarkE10Headroom(b *testing.B) {
	var pts []experiments.E10Point
	for i := 0; i < b.N; i++ {
		pts, _ = experiments.E10(nil)
	}
	for _, p := range pts {
		if p.ClockMHz == 25 {
			b.ReportMetric(p.MaxMbps, "25MHz-maxMbps")
		}
	}
}

// BenchmarkE11EngineScaleOut regenerates the multi-engine OC-12 figure.
func BenchmarkE11EngineScaleOut(b *testing.B) {
	var pts []experiments.E11Point
	for i := 0; i < b.N; i++ {
		pts, _ = experiments.E11([]int{1, 3}, 10*sim.Millisecond)
	}
	b.ReportMetric(pts[0].GoodputBps/1e6, "1eng-Mbps")
	b.ReportMetric(pts[1].GoodputBps/1e6, "3eng-Mbps")
}

// BenchmarkE16MultiHop regenerates the tandem-switch CDV-accumulation
// figure: the 4-hop, 155 Mb/s point of the E16 sweep, built entirely
// through core.NewNetwork.
func BenchmarkE16MultiHop(b *testing.B) {
	prev := experiments.Shards()
	experiments.SetShards(*benchShards)
	defer experiments.SetShards(prev)
	var pts []experiments.E16Point
	for i := 0; i < b.N; i++ {
		pts, _ = experiments.E16(5 * sim.Millisecond)
	}
	for _, pt := range pts {
		if pt.Switches == 4 && pt.Rate == units.STS3cPayload {
			b.ReportMetric(float64(pt.E2ECDV)/1000, "4hop-cdv-us")
			b.ReportMetric(float64(pt.E2EMean)/1000, "4hop-mean-us")
		}
	}
}

// BenchmarkE17FaultRecovery regenerates the link-failure experiment: a
// mid-path fiber cut and repair under load, reporting the fault-detection
// and post-repair recovery latencies.
func BenchmarkE17FaultRecovery(b *testing.B) {
	var res experiments.E17Result
	for i := 0; i < b.N; i++ {
		res, _ = experiments.E17(10 * sim.Millisecond)
	}
	b.ReportMetric(float64(res.DetectLatency)/1000, "detect-us")
	b.ReportMetric(float64(res.RecoveryLatency)/1000, "recover-us")
	b.ReportMetric(float64(res.StaleFramesReclaimed), "stale-frames")
}

// BenchmarkE18StageBreakdown regenerates the per-stage latency attribution
// of the E5 MTU journey from flight-recorder spans, and asserts the stage
// sums reconcile with the measured end-to-end latency within 5%.
func BenchmarkE18StageBreakdown(b *testing.B) {
	var rows []experiments.E18Row
	for i := 0; i < b.N; i++ {
		rows, _, _ = experiments.E18()
	}
	for _, r := range rows {
		switch r.Rate {
		case units.STS3cPayload:
			b.ReportMetric(float64(r.Sum)/1000, "155-sum-us")
			b.ReportMetric(float64(r.SARFifo)/1000, "155-sarfifo-us")
		case units.STS12cPayload:
			b.ReportMetric(float64(r.Sum)/1000, "622-sum-us")
			b.ReportMetric(float64(r.RxFifo)/1000, "622-rxfifo-us")
		}
		ratio := float64(r.Sum) / float64(r.Measured)
		if ratio < 0.95 || ratio > 1.05 {
			b.Fatalf("rate %d: stage sum %v vs measured %v (ratio %.3f, want within 5%%)",
				r.Rate, r.Sum, r.Measured, ratio)
		}
	}
}

// BenchmarkAblationInterleave measures the short-frame latency win of
// multi-VC interleaved segmentation (DESIGN.md's TX scheduler choice): a
// 96-byte frame queued behind a 64 KiB bulk frame, serial vs interleaved.
func BenchmarkAblationInterleave(b *testing.B) {
	measure := func(interleave bool) float64 {
		tb, err := core.NewTestbed(core.Options{InterleaveVCs: interleave}, core.LinkOptions{})
		if err != nil {
			b.Fatal(err)
		}
		bulk, small := core.VC{VCI: 1}, core.VC{VCI: 2}
		tb.OpenVC(bulk)
		tb.OpenVC(small)
		var at sim.Time
		tb.B.OnReceive(func(p core.Packet) {
			if p.VC == small {
				at = p.At
			}
		})
		tb.A.Send(bulk, make([]byte, 65535), nil)
		tb.A.Send(small, make([]byte, 96), nil)
		tb.Run()
		return float64(at) / 1000
	}
	var serial, inter float64
	for i := 0; i < b.N; i++ {
		serial = measure(false)
		inter = measure(true)
	}
	b.ReportMetric(serial, "serial-us")
	b.ReportMetric(inter, "interleaved-us")
}

// BenchmarkAblationSonetPath compares the cell-granular link shortcut with
// the full SONET-framed path (framing, scrambling, delineation) — the
// fidelity/speed trade DESIGN.md documents.
func BenchmarkAblationSonetPath(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel()
		mk := func(name string) *nic.Interface {
			cfg := nic.DefaultConfig(name)
			cfg.RxFifoDepth = 128
			iface, err := nic.New(k, cfg, host.New(k, host.DefaultConfig()), bus.New(k, bus.DefaultConfig()))
			if err != nil {
				b.Fatal(err)
			}
			return iface
		}
		a, bb := mk("a"), mk("b")
		if _, err := sonetlink.Connect(k, sonetlink.Config{Rate: sonet.STS3c, Delay: 10_000}, a, bb); err != nil {
			b.Fatal(err)
		}
		vc := atm.VC{VCI: 9}
		a.OpenVC(vc)
		bb.OpenVC(vc)
		delivered := 0
		bb.OnReceive(func(nic.Delivered) { delivered++ })
		for j := 0; j < 5; j++ {
			a.Send(vc, make([]byte, 9180), nil)
		}
		k.Run()
		if delivered != 5 {
			b.Fatalf("delivered %d of 5 over SONET path", delivered)
		}
	}
}

// BenchmarkShardedTopology measures what partitioned conservative-parallel
// execution buys on a topology built for it: four switch islands (one switch
// + two endpoints each) joined in a chain by 50 µs inter-island fibers — the
// lookahead window — with heavy intra-island traffic and a light paced flow
// crossing each boundary. The golden tests pin sharded runs byte-identical
// to serial; this records the wall-clock trajectory (1/2/4 shards) in
// BENCH.json. The speedup needs real cores: with GOMAXPROCS below the shard
// count the partitions timeshare one CPU and only the barrier overhead shows.
func BenchmarkShardedTopology(b *testing.B) {
	const (
		islands  = 4
		deadline = sim.Time(10 * sim.Millisecond)
		interDly = 50_000 // ns; the partitions' lookahead
	)
	mkSpec := func() core.NetworkSpec {
		var spec core.NetworkSpec
		for i := 1; i <= islands; i++ {
			spec.Switches = append(spec.Switches, core.SwitchSpec{
				Name: fmt.Sprintf("sw%d", i), Ports: 4, QueueDepth: 96,
			})
			spec.Endpoints = append(spec.Endpoints,
				core.EndpointSpec{Name: fmt.Sprintf("a%d", i)},
				core.EndpointSpec{Name: fmt.Sprintf("b%d", i)})
			spec.Links = append(spec.Links,
				core.LinkSpec{
					Name: fmt.Sprintf("a%d-in", i), A: core.NodeRef{Node: fmt.Sprintf("a%d", i)},
					B:     core.NodeRef{Node: fmt.Sprintf("sw%d", i), Port: 0},
					Delay: 1_000, Seed: uint64(10 + i),
				},
				core.LinkSpec{
					Name: fmt.Sprintf("b%d-in", i), A: core.NodeRef{Node: fmt.Sprintf("b%d", i)},
					B:     core.NodeRef{Node: fmt.Sprintf("sw%d", i), Port: 1},
					Delay: 1_000, Seed: uint64(20 + i),
				})
			if i > 1 {
				spec.Links = append(spec.Links, core.LinkSpec{
					Name:  fmt.Sprintf("sw%d-sw%d", i-1, i),
					A:     core.NodeRef{Node: fmt.Sprintf("sw%d", i-1), Port: 2},
					B:     core.NodeRef{Node: fmt.Sprintf("sw%d", i), Port: 3},
					Delay: interDly, Seed: uint64(30 + i),
				})
			}
			// Heavy intra-island load both ways, plus one light flow into the
			// next island (paced below 5% of line so the boundary stays cheap).
			spec.VCCs = append(spec.VCCs,
				core.VCCSpec{Name: fmt.Sprintf("ab%d", i), From: fmt.Sprintf("a%d", i),
					To: fmt.Sprintf("b%d", i), VC: core.VC{VCI: uint16(100 + i)}},
				core.VCCSpec{Name: fmt.Sprintf("ba%d", i), From: fmt.Sprintf("b%d", i),
					To: fmt.Sprintf("a%d", i), VC: core.VC{VCI: uint16(120 + i)}})
			if i > 1 {
				spec.VCCs = append(spec.VCCs, core.VCCSpec{
					Name: fmt.Sprintf("x%d", i), From: fmt.Sprintf("a%d", i-1),
					To: fmt.Sprintf("b%d", i), VC: core.VC{VCI: uint16(140 + i)}})
			}
		}
		return spec
	}
	partitions := func(shards int) [][]string {
		parts := make([][]string, shards)
		per := islands / shards
		for i := 1; i <= islands; i++ {
			s := (i - 1) / per
			parts[s] = append(parts[s],
				fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i), fmt.Sprintf("sw%d", i))
		}
		return parts
	}
	run := func(b *testing.B, shards int) uint64 {
		var delivered uint64
		for n := 0; n < b.N; n++ {
			spec := mkSpec()
			if shards > 1 {
				spec.Partitions = partitions(shards)
			}
			net, err := core.NewNetwork(spec)
			if err != nil {
				b.Fatal(err)
			}
			counts := make([]int, 2*islands)
			for i := 1; i <= islands; i++ {
				slotA, slotB := &counts[2*(i-1)], &counts[2*(i-1)+1]
				net.Endpoint(fmt.Sprintf("a%d", i)).OnReceive(func(core.Packet) { *slotA++ })
				net.Endpoint(fmt.Sprintf("b%d", i)).OnReceive(func(core.Packet) { *slotB++ })
			}
			for i := 1; i <= islands; i++ {
				for _, name := range []string{fmt.Sprintf("ab%d", i), fmt.Sprintf("ba%d", i)} {
					v := net.VCC(name)
					netsim.NewSource(net.NodeKernel(v.Source.Name()), v.Source.Station(),
						v.SourceVC, 9180, deadline).Start(4)
				}
				if i > 1 {
					v := net.VCC(fmt.Sprintf("x%d", i))
					if err := v.Source.SetPeakCellRate(v.SourceVC, 0.05*units.CellRate(units.STS3cPayload)); err != nil {
						b.Fatal(err)
					}
					netsim.NewSource(net.NodeKernel(v.Source.Name()), v.Source.Station(),
						v.SourceVC, 9180, deadline).Start(2)
				}
			}
			net.Run()
			net.Close()
			delivered = 0
			for _, c := range counts {
				delivered += uint64(c)
			}
			if delivered == 0 {
				b.Fatal("no SDUs delivered")
			}
		}
		b.ReportMetric(float64(delivered), "sdus/op")
		return delivered
	}
	var serialCount uint64
	b.Run("shards=1", func(b *testing.B) { serialCount = run(b, 1) })
	for _, shards := range []int{2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			if got := run(b, shards); serialCount != 0 && got != serialCount {
				b.Fatalf("delivered %d SDUs, serial %d", got, serialCount)
			}
		})
	}
}

// BenchmarkE12Transport regenerates the transport-over-loss figure.
func BenchmarkE12Transport(b *testing.B) {
	var pts []experiments.E12Point
	for i := 0; i < b.N; i++ {
		pts, _ = experiments.E12([]float64{0, 2e-3}, 1<<19)
	}
	for _, p := range pts {
		switch {
		case !p.Selective && p.LossProb == 0:
			b.ReportMetric(p.GoodputBps/1e6, "gbn-clean-Mbps")
		case !p.Selective:
			b.ReportMetric(p.GoodputBps/1e6, "gbn-lossy-Mbps")
		case p.Selective && p.LossProb != 0:
			b.ReportMetric(p.GoodputBps/1e6, "sr-lossy-Mbps")
		}
	}
}

// BenchmarkE13FEC regenerates the packet-level FEC figure.
func BenchmarkE13FEC(b *testing.B) {
	var pts []experiments.E13Point
	for i := 0; i < b.N; i++ {
		pts, _ = experiments.E13([]float64{1e-3}, 9180, 8, 20*sim.Millisecond)
	}
	b.ReportMetric(pts[0].DeliveredFrac, "plain-frac")
	b.ReportMetric(pts[1].DeliveredFrac, "fec-frac")
}

// BenchmarkE14Policing regenerates the shaped-vs-unshaped policing table.
func BenchmarkE14Policing(b *testing.B) {
	var res [2]experiments.E14Result
	for i := 0; i < b.N; i++ {
		res, _ = experiments.E14(20 * sim.Millisecond)
	}
	b.ReportMetric(float64(res[0].Discarded), "unshaped-discards")
	b.ReportMetric(float64(res[1].Tagged+res[1].Discarded), "shaped-nonconform")
	b.ReportMetric(res[1].GoodputBps/1e6, "shaped-Mbps")
}

// BenchmarkE15EPD regenerates the tail-drop vs EPD/PPD goodput figure.
func BenchmarkE15EPD(b *testing.B) {
	var pts []experiments.E15Point
	for i := 0; i < b.N; i++ {
		pts, _ = experiments.E15([]float64{1.3}, 15*sim.Millisecond)
	}
	b.ReportMetric(pts[0].Efficiency, "tail-eff")
	b.ReportMetric(pts[1].Efficiency, "epd-eff")
}

// BenchmarkE19TCPBuffer regenerates the TCP-goodput-vs-switch-buffer figure
// at its extreme points: tail drop collapses below 1xBDP, EPD/PPD recovers.
func BenchmarkE19TCPBuffer(b *testing.B) {
	var pts []experiments.E19Point
	for i := 0; i < b.N; i++ {
		pts, _ = experiments.E19([]float64{0.25, 2.0}, 1500*sim.Millisecond)
	}
	for _, p := range pts {
		name := "tail"
		if p.EPD {
			name = "epd"
		}
		b.ReportMetric(p.Efficiency, fmt.Sprintf("%s-%.2fbdp-eff", name, p.BufferFrac))
	}
}

// BenchmarkE20GEO regenerates the GEO-delay TCP run: window-limited goodput
// over a 275 ms hop with a clean, stable cwnd trace.
func BenchmarkE20GEO(b *testing.B) {
	var res experiments.E20Result
	for i := 0; i < b.N; i++ {
		res, _ = experiments.E20(2, 6*sim.Second)
	}
	b.ReportMetric(res.Flows[0].GoodputBps/1e6, "flow0-Mbps")
	b.ReportMetric(res.JainIndex, "jain")
	b.ReportMetric(res.WindowLimitBps/1e6, "winlimit-Mbps")
}

// BenchmarkE21ABRConvergence regenerates the ABR closed-loop figure at its
// middle feedback delay: convergence time, Jain fairness over the settled
// tail, and the bottleneck queue excursion.
func BenchmarkE21ABRConvergence(b *testing.B) {
	var pts []experiments.E21Point
	for i := 0; i < b.N; i++ {
		pts, _ = experiments.E21(30 * sim.Millisecond)
	}
	mid := pts[1] // 50 µs one-way delay
	conv := float64(-1)
	if mid.Converged {
		conv = float64(mid.Convergence) / 1e6
	}
	b.ReportMetric(conv, "conv-ms")
	b.ReportMetric(mid.Jain, "jain")
	b.ReportMetric(float64(mid.QueuePeak), "qpeak-cells")
}
