// Command atmbench regenerates the reconstructed evaluation of the Davie
// SIGCOMM '91 host–network interface: experiments E1 through E21 (see
// DESIGN.md for the index). Run with no flags to print everything, or
// select experiments:
//
//	atmbench -exp e3,e4
//	atmbench -exp e1 -csv
//	atmbench -quick        # shorter simulated runs
//	atmbench -parallel 0   # fan independent sweep points across all CPUs
//	atmbench -shards 4     # shard each simulation across partition kernels
//	atmbench -exp e18 -trace e18.json   # export E18's flight trace
//
// -parallel and -shards are different axes: -parallel runs many independent
// simulations at once (one goroutine per sweep point), while -shards splits
// one simulation's topology into conservatively-synchronized partitions
// (see DESIGN.md, "Parallel execution"). Both are pinned bit-identical to
// the serial kernel and they compose.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	expFlag := flag.String("exp", "all", "comma-separated experiments (e1..e21) or 'all'")
	quick := flag.Bool("quick", false, "shorter simulated runs (for smoke tests)")
	csv := flag.Bool("csv", false, "emit tables as CSV where applicable")
	metricsPath := flag.String("metrics", "", "run the instrumented telemetry pass and write its JSON snapshot here (\"-\" for stdout)")
	tracePath := flag.String("trace", "", "with e18: write its flight recording as Perfetto trace-event JSON here (\"-\" for stdout)")
	cwndPath := flag.String("cwnd", "", "with e20: write the sampled cwnd/metrics time series as CSV here (\"-\" for stdout)")
	geoFlows := flag.Int("geo-flows", 2, "with e20: number of concurrent GEO flows")
	parallel := flag.Int("parallel", 1, "worker goroutines fanning independent sweep points across CPUs (0 = GOMAXPROCS); results are bit-identical to -parallel 1; for parallelism inside one simulation see -shards")
	shards := flag.Int("shards", 1, "partition count for intra-run conservative-parallel execution: each simulation's topology is split across this many kernels advancing in lock-step (experiments that build partitionable topologies honor it; results are bit-identical to -shards 1)")
	flag.Parse()

	experiments.SetParallelism(*parallel)
	experiments.SetShards(*shards)

	want := map[string]bool{}
	if *expFlag == "all" {
		for i := 1; i <= 21; i++ {
			want[fmt.Sprintf("e%d", i)] = true
		}
	} else {
		for _, e := range strings.Split(*expFlag, ",") {
			want[strings.TrimSpace(strings.ToLower(e))] = true
		}
	}

	runTime := func(full sim.Duration) sim.Duration {
		if *quick {
			return full / 4
		}
		return full
	}

	emitTable := func(t *report.Table) {
		if *csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Println(t.String())
		}
	}
	emitSeries := func(s *report.Series) {
		if *csv {
			fmt.Print(s.CSV())
		} else {
			fmt.Println(s.String())
		}
	}

	ran := 0
	if want["e1"] {
		_, tb := experiments.E1(engine.DefaultConfig())
		emitTable(tb)
		ran++
	}
	if want["e2"] {
		_, tb := experiments.E2(engine.DefaultConfig())
		emitTable(tb)
		ran++
	}
	if want["e3"] {
		ec := experiments.DefaultE3()
		ec.RunTime = runTime(ec.RunTime)
		_, s155, s622 := experiments.E3(ec)
		emitSeries(s155)
		emitSeries(s622)
		ran++
	}
	if want["e4"] {
		ec := experiments.DefaultE4()
		ec.RunTime = runTime(ec.RunTime)
		_, util, tput := experiments.E4(ec)
		emitSeries(util)
		emitSeries(tput)
		ran++
	}
	if want["e5"] {
		_, tb := experiments.E5()
		emitTable(tb)
		ran++
	}
	if want["e6"] {
		_, sr := experiments.E6(nil)
		emitSeries(sr)
		ran++
	}
	if want["e7"] {
		_, tb := experiments.E7()
		emitTable(tb)
		ran++
	}
	if want["e8"] {
		ec := experiments.DefaultE8()
		ec.RunTime = runTime(ec.RunTime)
		_, sr := experiments.E8(ec)
		emitSeries(sr)
		ran++
	}
	if want["e9"] {
		_, sr := experiments.E9(nil, runTime(30*sim.Millisecond))
		emitSeries(sr)
		ran++
	}
	if want["e10"] {
		_, sr := experiments.E10(nil)
		emitSeries(sr)
		ran++
	}
	if want["e11"] {
		_, sr := experiments.E11(nil, runTime(20*sim.Millisecond))
		emitSeries(sr)
		ran++
	}
	if want["e12"] {
		size := 1 << 20
		if *quick {
			size = 1 << 18
		}
		_, sr := experiments.E12(nil, size)
		emitSeries(sr)
		ran++
	}
	if want["e13"] {
		_, sr := experiments.E13(nil, 9180, 8, runTime(60*sim.Millisecond))
		emitSeries(sr)
		ran++
	}
	if want["e14"] {
		_, tb := experiments.E14(runTime(40 * sim.Millisecond))
		emitTable(tb)
		ran++
	}
	if want["e15"] {
		_, sr := experiments.E15(nil, runTime(40*sim.Millisecond))
		emitSeries(sr)
		ran++
	}
	if want["e16"] {
		_, sr := experiments.E16(runTime(30 * sim.Millisecond))
		emitSeries(sr)
		ran++
	}
	if want["e17"] {
		res, sr := experiments.E17(runTime(20 * sim.Millisecond))
		fmt.Println("E17:", res.String())
		emitSeries(sr)
		ran++
	}
	if want["e18"] {
		_, tb, rec := experiments.E18()
		emitTable(tb)
		if *tracePath != "" {
			if err := writeTrace(*tracePath, rec); err != nil {
				fmt.Fprintln(os.Stderr, "atmbench:", err)
				os.Exit(1)
			}
		}
		ran++
	}
	if want["e19"] {
		pts, sr := experiments.E19(nil, runTime(2*sim.Second))
		emitSeries(sr)
		for _, p := range pts {
			fmt.Println(" ", p.String())
		}
		ran++
	}
	if want["e20"] {
		res, tb := experiments.E20(*geoFlows, runTime(10*sim.Second))
		emitTable(tb)
		if *cwndPath != "" {
			if err := writeCwnd(*cwndPath, res.Sampler); err != nil {
				fmt.Fprintln(os.Stderr, "atmbench:", err)
				os.Exit(1)
			}
		}
		ran++
	}
	if want["e21"] {
		pts, sr := experiments.E21(runTime(30 * sim.Millisecond))
		emitSeries(sr)
		for _, p := range pts {
			fmt.Println(" ", p.String())
		}
		ran++
	}
	if *metricsPath != "" {
		ec := experiments.DefaultTelemetry()
		ec.RunTime = runTime(ec.RunTime)
		snap, tb := experiments.Telemetry(ec)
		emitTable(tb)
		data, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "atmbench:", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if *metricsPath == "-" {
			_, err = os.Stdout.Write(data)
		} else {
			err = os.WriteFile(*metricsPath, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "atmbench:", err)
			os.Exit(1)
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "atmbench: no experiment matched %q (use e1..e21 or all)\n", *expFlag)
		os.Exit(2)
	}
}

// writeCwnd exports the sampled metrics time series (cwnd gauges included)
// as CSV.
func writeCwnd(path string, s *trace.Sampler) error {
	if path == "-" {
		return s.WriteCSV(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTrace exports a flight recording as Perfetto trace-event JSON.
func writeTrace(path string, rec *trace.Recorder) error {
	if path == "-" {
		return rec.WriteTraceJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteTraceJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
