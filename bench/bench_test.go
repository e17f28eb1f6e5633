package bench

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// testScale runs every workload at 1/20 of its benchmark length.
const testScale = 1.0 / 20

// pinnedSmall is each workload's seed-1 digest at testScale.
var pinnedSmall = map[string]Digest{
	"lan_fabric":    {SDUs: 60, CellHops: 24192, Events: 108395, Drops: 0, DropHash: 11094895029588779369},
	"wan_tcp":       {SDUs: 144, CellHops: 26728, Events: 95480, Drops: 0, DropHash: 9088011171652135466},
	"sonet_framed":  {SDUs: 48, CellHops: 9216, Events: 38120, Drops: 0, DropHash: 3791726601153476411},
	"small_sdu_abr": {SDUs: 907, CellHops: 1934, Events: 15812, Drops: 0, DropHash: 11373436100165727899},
}

func testConfig(seed uint64) Config {
	return Config{Seed: seed, Scale: testScale, SetupSamples: 3, MinReps: 1}
}

func TestWorkloadsPassChecks(t *testing.T) {
	for _, w := range Workloads {
		for _, seed := range []uint64{1, 2} {
			r, err := runRep(w, testConfig(seed), probes{})
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.Name, seed, err)
			}
			if seed == 1 && r.d != pinnedSmall[w.Name] {
				t.Errorf("%s: seed-1 digest %+v, pinned %+v", w.Name, r.d, pinnedSmall[w.Name])
			}
		}
	}
}

// The shims and the profiler only observe: a traced rep must simulate
// exactly what an untraced one does.
func TestTracingPerturbsNothing(t *testing.T) {
	for _, w := range Workloads {
		for name, p := range map[string]probes{
			"shims":    {tr: newTracer(0)},
			"profiler": {prof: newProfiler()},
		} {
			r, err := runRep(w, testConfig(1), p)
			if err != nil {
				t.Fatalf("%s with %s: %v", w.Name, name, err)
			}
			if r.d != pinnedSmall[w.Name] {
				t.Errorf("%s with %s: digest %+v, untraced %+v", w.Name, name, r.d, pinnedSmall[w.Name])
			}
		}
	}
}

// The bench's sources and checks must allocate nothing per SDU, so that
// allocs_per_cell_hop measures the simulator alone.
func TestBenchSideAllocatesNothing(t *testing.T) {
	for _, size := range []int{abrSDU, 9180} {
		p := newPayload(1, 7, size)
		src := newSource(nil, nil, core.VC{VCI: 100}, p, 1, 0, onTransmit)
		rx := &receiver{byVC: map[core.VC]*checker{{VCI: 100}: newChecker(p, nil)}}
		var seq uint32
		allocs := testing.AllocsPerRun(200, func() {
			rx.deliver(core.Packet{VC: core.VC{VCI: 100}, Data: src.fill(seq)})
			seq++
		})
		if allocs != 0 {
			t.Errorf("%d-byte SDUs: %v allocations per SDU on the bench side", size, allocs)
		}
		if c := rx.byVC[core.VC{VCI: 100}]; c.err != nil || c.got == 0 {
			t.Fatalf("%d-byte SDUs: checker got %d, err %v", size, c.got, c.err)
		}
	}
}

func TestCheckerRejectsBadDeliveries(t *testing.T) {
	p := newPayload(1, 3, 64)
	src := newSource(nil, nil, core.VC{}, p, 1, 0, onTransmit)
	sdu := func(seq uint32) []byte { return append([]byte(nil), src.fill(seq)...) }
	corrupted, truncated := sdu(0), sdu(0)[:63]
	corrupted[40] ^= 1
	other := newSource(nil, nil, core.VC{}, newPayload(1, 4, 64), 1, 0, onTransmit)
	for name, feed := range map[string][][]byte{
		"duplicate": {sdu(5), sdu(5)},
		"reordered": {sdu(6), sdu(5)},
		"corrupted": {corrupted},
		"truncated": {truncated},
		"wrong vcc": {other.fill(0)},
	} {
		c := newChecker(p, nil)
		for _, b := range feed {
			c.check(b)
		}
		if c.err == nil {
			t.Errorf("%s SDU passed the check", name)
		}
	}
}

type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func checkNames(t *testing.T, what string, declared []struct{ Name, Unit string }, emitted []Metric) {
	t.Helper()
	if len(declared) != len(emitted) {
		t.Fatalf("%s: BENCHMARK.json declares %d metrics, the code emits %d", what, len(declared), len(emitted))
	}
	for i, m := range emitted {
		if d := declared[i]; d.Name != m.Name || d.Unit != m.Unit {
			t.Errorf("%s[%d]: declared %s (%s), emitted %s (%s)", what, i, d.Name, d.Unit, m.Name, m.Unit)
		}
	}
}

func TestMeasureEmitsDeclaredMetrics(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the code has %d", len(bj.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if bj.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: declared %q, code has %q", i, bj.Workloads[i].Name, w.Name)
		}
	}
	w, err := Lookup("small_sdu_abr")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Measure(w, testConfig(2))
	if err != nil || !res.Correct() {
		t.Fatalf("Measure: %v %v", err, res.Errors)
	}
	checkNames(t, "end_to_end", bj.EndToEnd, res.Metrics)
	for _, m := range res.Metrics {
		if m.Value <= 0 {
			t.Errorf("%s = %v; end-to-end metrics are never 0", m.Name, m.Value)
		}
	}
}

// Every workload's traced run reports every declared per-layer metric, its
// CPU shares sum to one, and its span export passes the repository's
// trace-schema gate. The reps run at a quarter of the benchmark's length:
// the CPU profiler's first sample of a rep comes 10 ms into it.
func TestTraceEmitsDeclaredMetricsAndValidTrace(t *testing.T) {
	// The leaf microbenchmarks run under testing.Benchmark; a short
	// benchtime keeps them from taking a second each.
	if err := flag.Set("test.benchtime", "20ms"); err != nil {
		t.Fatal(err)
	}
	bj := readBenchmarkJSON(t)
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range Workloads {
		cfg := testConfig(1)
		cfg.Scale, cfg.Seconds = 0.25, 0.6
		untraced, err := runRep(w, cfg, probes{})
		if err != nil {
			t.Fatal(err)
		}
		res, tr, err := Trace(w, cfg)
		if err != nil || !res.Correct() {
			t.Fatalf("%s: Trace: %v %v", w.Name, err, res.Errors)
		}
		if res.Digest != untraced.d {
			t.Errorf("%s: traced digest %+v, untraced %+v", w.Name, res.Digest, untraced.d)
		}
		checkNames(t, w.Name+" per_layer", bj.PerLayer, res.Metrics)
		var cpu float64
		for _, m := range res.Metrics {
			if len(m.Name) > 4 && m.Name[:4] == "cpu." {
				cpu += m.Value
			}
		}
		if math.Abs(cpu-1) > 0.01 {
			t.Errorf("%s: cpu.* shares sum to %v", w.Name, cpu)
		}

		path := filepath.Join(t.TempDir(), w.Name+"-trace.json")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.WriteChromeTrace(f, w.Name); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command("go", "run", "./cmd/traceverify", path)
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Errorf("%s: traceverify: %v\n%s", w.Name, err, out)
		}
	}
}

// Values from Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}
