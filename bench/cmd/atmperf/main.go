// Command atmperf measures what the simulator costs to run one benchmark
// workload, and prints every metric by name with its unit.
//
//	atmperf -workload lan_fabric [-seed 1] [-seconds 10] [-json out.json]
//	atmperf -workload lan_fabric -trace 1 [-trace-out trace.json] [-json layers.json]
//
// With -trace 0 (the default) it reports the end-to-end metrics; with
// -trace 1 it is the separate traced run and reports the per-layer ones.
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. -json also writes the detailed result (quartiles and
// sample counts, the digest, failure reasons) to a file. A failed check is
// printed to standard error and the exit status is 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/bench"
)

func main() {
	workload := flag.String("workload", "", "workload name (lan_fabric, wan_tcp, sonet_framed, small_sdu_abr)")
	seed := flag.Uint64("seed", 1, "seed for link seeds, payload bytes and source start offsets")
	seconds := flag.Float64("seconds", 10, "wall-time budget of the measured reps")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	jsonOut := flag.String("json", "", "write the detailed result to this file")
	traceOut := flag.String("trace-out", "", "traced run: write the first rep's spans here as Chrome trace-event JSON")
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "atmperf: -trace takes 0 or 1")
		os.Exit(2)
	}
	w, err := bench.Lookup(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "atmperf:", err)
		os.Exit(2)
	}
	cfg := bench.DefaultConfig(*seed, *seconds)

	var res *bench.Result
	if *traced == 1 {
		var tr *bench.Tracer
		res, tr, err = bench.Trace(w, cfg)
		if err == nil && *traceOut != "" {
			err = writeFile(*traceOut, func(f io.Writer) error { return tr.WriteChromeTrace(f, w.Name) })
		}
	} else {
		res, err = bench.Measure(w, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "atmperf:", err)
		os.Exit(1)
	}

	for _, m := range res.Metrics {
		if m.N > 1 {
			fmt.Printf("%-32s %14.6g %-6s (q1 %.6g, median %.6g, q3 %.6g, n=%d)\n",
				m.Name, m.Value, m.Unit, m.Q1, m.Median, m.Q3, m.N)
		} else {
			fmt.Printf("%-32s %14.6g %s\n", m.Name, m.Value, m.Unit)
		}
	}
	fmt.Printf("%-32s %14.6g %s (%d of %d reps)\n", "failed_frac",
		float64(res.Failed)/float64(res.Attempted), "1", res.Failed, res.Attempted)
	fmt.Printf("%-32s %+v\n", "digest", res.Digest)
	fmt.Printf("%-32s %14d ns (fastest run)\n", "reference_loop", res.RefNs)
	for _, e := range res.Errors {
		fmt.Fprintln(os.Stderr, "atmperf: FAILED CHECK:", e)
	}
	if *jsonOut != "" {
		err := writeFile(*jsonOut, func(f io.Writer) error {
			enc := json.NewEncoder(f)
			enc.SetIndent("", "  ")
			return enc.Encode(struct {
				Seed uint64
				*bench.Result
			}{*seed, res})
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "atmperf:", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(report(res))
	if err != nil {
		fmt.Fprintln(os.Stderr, "atmperf:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct() {
		os.Exit(1)
	}
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func report(res *bench.Result) result {
	out := result{Correct: res.Correct(), Attempted: res.Attempted, Failed: res.Failed,
		Metrics: map[string]value{}}
	for _, m := range res.Metrics {
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	return out
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}
