package bench

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/sonetlink"
)

// Config sets how one process measures a workload.
type Config struct {
	Seed uint64
	// Seconds is the wall-time budget of the measured reps (the traced run
	// splits it between its phases). At least MinReps reps run regardless.
	Seconds float64
	// Scale multiplies every workload's simulated length; 1 is the
	// benchmark, tests run smaller.
	Scale float64
	// SetupSamples is the number of build-then-Close samples behind setup_s.
	SetupSamples int
	// Warmup reps run first and are discarded.
	Warmup  int
	MinReps int
}

// DefaultConfig is the benchmark's configuration for one seed.
func DefaultConfig(seed uint64, seconds float64) Config {
	return Config{Seed: seed, Seconds: seconds, Scale: 1, SetupSamples: 1000, Warmup: 2, MinReps: 5}
}

// Metric is one reported number.
type Metric struct {
	Name  string
	Unit  string
	Value float64
	// Quartiles of the N samples (builds or reps) behind Value. Value is
	// their median, except for the two Run timings: see Measure.
	Q1, Median, Q3 float64
	N              int
}

// Result is what one process reports.
type Result struct {
	Workload  string
	Attempted int // reps run, warm-ups included
	Failed    int
	Errors    []string // the first few failure reasons
	Metrics   []Metric
	Digest    Digest
	RefNs     int64 // the fastest run of the reference loop (see refLoop)
}

// Correct reports whether every rep passed its checks.
func (r *Result) Correct() bool { return r.Failed == 0 }

func (r *Result) fail(err error) {
	r.Failed++
	if len(r.Errors) < 5 {
		r.Errors = append(r.Errors, err.Error())
	}
}

// Digest pins what a seed-1 run simulates. A change that only makes the
// simulator faster must leave it identical.
type Digest struct {
	SDUs     uint64 // frames delivered to endpoints
	CellHops uint64 // cells accepted onto a fiber
	Events   uint64 // kernel events dispatched
	Drops    uint64 // sum of every drop counter in the metrics registry
	DropHash uint64 // FNV-1a of those counters by name, and of per-VC drops by cause
}

// pinned is each workload's digest for seed 1 at scale 1.
var pinned = map[string]Digest{
	"lan_fabric":    {SDUs: 514, CellHops: 201982, Events: 784163, Drops: 771, DropHash: 5284576602633217665},
	"wan_tcp":       {SDUs: 2866, CellHops: 566068, Events: 2026635, Drops: 11328, DropHash: 4170835500183828785},
	"sonet_framed":  {SDUs: 748, CellHops: 143616, Events: 593708, Drops: 0, DropHash: 3791726601153476411},
	"small_sdu_abr": {SDUs: 14556, CellHops: 30996, Events: 253578, Drops: 0, DropHash: 11373436100165727899},
}

// counts are the exact simulated totals of one rep.
type counts struct {
	cellHops, sdus, events uint64
	rxCells, aalErrors     uint64
	swRouted, swDropped    uint64
	tcpSegs, tcpRetx       uint64
	frames, frameErrors    uint64
}

func (r *rig) counts() counts {
	var c counts
	for _, ls := range r.links {
		l := r.net.Link(ls.Name)
		if l.Framed != nil {
			for _, h := range []*sonetlink.Half{l.Framed.AtoB, l.Framed.BtoA} {
				st := h.Stats()
				c.cellHops += st.DataCells
				c.frames += st.Frames
				c.frameErrors += st.FrameErrors
			}
			continue
		}
		c.cellHops += l.Fwd.Stats().Sent + l.Rev.Stats().Sent
	}
	for _, name := range r.endpoints {
		rx := r.net.Endpoint(name).Stats().Rx
		c.sdus += rx.Packets
		c.rxCells += rx.Cells
		c.aalErrors += rx.AALErrors
	}
	for name := range r.isSwitch {
		st := r.net.Switch(name).Stats()
		c.swRouted += st.Routed
		c.swDropped += st.Dropped + st.CLPDropped + st.EPDCells + st.PPDCells + st.PolicedDiscarded
	}
	for _, f := range r.flows {
		st := f.Sender.Stats()
		c.tcpSegs += st.Segments
		c.tcpRetx += st.Retransmits
	}
	if r.net.Shards() == 1 {
		c.events = r.net.Kernel().Dispatched()
	}
	return c
}

func (r *rig) digest(c counts) Digest {
	d := Digest{SDUs: c.sdus, CellHops: c.cellHops, Events: c.events}
	h := fnv.New64a()
	snap := r.net.Metrics().Snapshot()
	for _, cs := range snap.Counters {
		if isDropCounter(cs.Name) {
			d.Drops += cs.Value
			fmt.Fprintf(h, "%s=%d\n", cs.Name, cs.Value)
		}
	}
	for _, vc := range snap.VCs {
		causes := make([]string, 0, len(vc.Drops))
		for cause := range vc.Drops {
			causes = append(causes, cause)
		}
		sort.Strings(causes)
		for _, cause := range causes {
			fmt.Fprintf(h, "%d/%d %s=%d\n", vc.VPI, vc.VCI, cause, vc.Drops[cause])
		}
	}
	d.DropHash = h.Sum64()
	return d
}

func isDropCounter(name string) bool {
	for _, s := range []string{"drop", "discard", "error", "epd_cells", "ppd_cells"} {
		if strings.Contains(name, s) {
			return true
		}
	}
	return false
}

// verify checks what the bench can know about the run's output.
func (r *rig) verify() error {
	for _, s := range r.sources {
		if s.err != nil {
			return s.err
		}
	}
	for _, rx := range r.receivers {
		if rx.err != nil {
			return rx.err
		}
	}
	for _, c := range r.checkers {
		if c.err != nil {
			return c.err
		}
		if c.got == 0 {
			return fmt.Errorf("vcc %d: nothing delivered", c.p.id)
		}
	}
	for _, f := range r.flows {
		if !f.Done() || f.Delivered() != r.flowBytes {
			return fmt.Errorf("flow %s: delivered %d of %d bytes", f.Name, f.Delivered(), r.flowBytes)
		}
	}
	return nil
}

// rep is one measured run of a workload.
type rep struct {
	wallNs, cpuNs  int64
	slices         []int64 // Run's wall time, one workload slice of simulated time at a time
	mallocs, bytes uint64
	gcCycles       uint32
	gcPauseNs      uint64
	c              counts
	d              Digest
}

// probes are the traced run's instruments; the zero value measures
// untraced.
type probes struct {
	tr   *Tracer   // timing shims on every CellPort boundary
	prof *profiler // CPU and allocation profiles around Run
}

// runRep builds the workload, times its Run, checks its output and closes
// it. A panic anywhere in the rep is reported as the rep's failure.
func runRep(w *Workload, cfg Config, p probes) (out rep, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	r, err := w.newRig(cfg.Seed, cfg.Scale, nil)
	if err != nil {
		return out, err
	}
	defer r.net.Close()
	if p.tr != nil {
		if err := r.attachShims(p.tr); err != nil {
			return out, err
		}
	}
	out.slices = make([]int64, 0, maxSlices) // before m0: the bench's own allocation
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	if p.prof != nil {
		if err := p.prof.start(); err != nil {
			return out, err
		}
		defer pprof.StopCPUProfile() // a no-op unless Run panicked mid-profile
	}
	// Run, one slice at a time: the kernel dispatches exactly the events
	// Run would, in the same order.
	k := r.net.Kernel()
	cpu0 := cpuTime()
	t0 := time.Now()
	for k.Pending() > 0 && len(out.slices) < maxSlices {
		s0 := time.Now()
		r.net.RunFor(w.slice)
		out.slices = append(out.slices, int64(time.Since(s0)))
	}
	out.wallNs = int64(time.Since(t0))
	out.cpuNs = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	if k.Pending() > 0 {
		return out, fmt.Errorf("Run needs more than %d slices of %v", maxSlices, w.slice)
	}
	if p.prof != nil {
		if err := p.prof.stop(); err != nil {
			return out, err
		}
	}
	out.mallocs = m1.Mallocs - m0.Mallocs
	out.bytes = m1.TotalAlloc - m0.TotalAlloc
	out.gcCycles = m1.NumGC - m0.NumGC
	out.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	if err := r.verify(); err != nil {
		return out, err
	}
	out.c = r.counts()
	if out.c.cellHops == 0 || out.c.sdus == 0 {
		return out, fmt.Errorf("no traffic: %d cell-hops, %d SDUs", out.c.cellHops, out.c.sdus)
	}
	out.d = r.digest(out.c)
	if want, ok := pinned[w.Name]; ok && cfg.Seed == 1 && cfg.Scale == 1 && out.d != want {
		return out, fmt.Errorf("seed-1 digest %+v, pinned %+v", out.d, want)
	}
	return out, nil
}

// maxSlices bounds the slices of one Run, so that their record is
// allocated before the measured region.
const maxSlices = 1024

// quietest estimates the wall time of Run on an undisturbed host: for each
// slice, the least any rep took for it, summed over the slices. Every rep
// simulates the same events slice for slice, so the reps differ only in
// what the host did meanwhile. On a shared host the simulator slows by tens
// of percent for seconds at a time, which moves the median of whole reps
// from run to run; a slice is a few ms long and has many chances to run
// undisturbed.
func quietest(rs []rep) float64 {
	var sum float64
	for j := range rs[0].slices {
		best := rs[0].slices[j]
		for _, r := range rs[1:] {
			best = min(best, r.slices[j])
		}
		sum += float64(best)
	}
	return sum
}

// The host's clock speed moves too, by up to a quarter between runs
// minutes apart. Measure scales every time to a fixed clock by a reference
// loop, timed refSamples times after every rep: refIters steps of a
// xorshift chain, each step waiting for the one before, so that the loop
// follows the core's clock and little else. refNominalNs is its time at
// the reference clock, about 3 GHz on x86-64 (six dependent ops a step).
const (
	refIters     = 100_000
	refSamples   = 5
	refNominalNs = 200_000
)

var refSink uint64

// refLoop returns the wall time of one run of the reference loop.
func refLoop() int64 {
	t0 := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < refIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	d := int64(time.Since(t0))
	refSink += x
	return d
}

// cpuTime is the process's user+sys CPU time in ns: every thread, so GC
// work on other cores counts.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// reps runs the workload until budget seconds have passed and at least
// min reps are in, recording failures into res. Every rep of one process
// must simulate the same thing: the same seed gives the same digest.
func reps(w *Workload, cfg Config, res *Result, budget float64, min int, p probes) []rep {
	var out []rep
	start := time.Now()
	for len(out) < min || time.Since(start).Seconds() < budget {
		res.Attempted++
		rp, err := runRep(w, cfg, p)
		if p.tr != nil {
			p.tr.stopRecording() // the export keeps the first rep's spans
		}
		if err == nil && res.Digest != (Digest{}) && rp.d != res.Digest {
			err = fmt.Errorf("digest %+v differs from this process's first rep %+v", rp.d, res.Digest)
		}
		if err == nil && len(out) > 0 && len(rp.slices) != len(out[0].slices) {
			err = fmt.Errorf("Run took %d slices, the first rep %d", len(rp.slices), len(out[0].slices))
		}
		for i := 0; i < refSamples; i++ {
			if t := refLoop(); res.RefNs == 0 || t < res.RefNs {
				res.RefNs = t
			}
		}
		if err != nil {
			res.fail(err)
			if res.Failed > min {
				break // failing every rep: stop early, the result is already wrong
			}
			continue
		}
		if res.Digest == (Digest{}) {
			res.Digest = rp.d
		}
		out = append(out, rp)
	}
	return out
}

// warmUp runs cfg.Warmup reps whose measurements are discarded; their
// checks still count.
func warmUp(w *Workload, cfg Config, res *Result) {
	for i := 0; i < cfg.Warmup; i++ {
		res.Attempted++
		if _, err := runRep(w, cfg, probes{}); err != nil {
			res.fail(err)
		}
	}
}

// setupSamples times n builds, each closed straight away, and returns the
// build times in seconds along with the bench's own NewNetwork and per-call
// AddVCC times in ns. Each build starts on a freshly collected heap, as the
// first build in a process does; it also keeps the churn of a thousand
// builds from setting the process's peak RSS.
func setupSamples(w *Workload, cfg Config, n int) (total, newNet, addVCC []float64, err error) {
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		r, err := w.newRig(cfg.Seed, cfg.Scale, nil)
		d := time.Since(t0).Seconds()
		if err != nil {
			return nil, nil, nil, err
		}
		r.net.Close()
		total = append(total, d)
		newNet = append(newNet, float64(r.newNetworkNs))
		addVCC = append(addVCC, float64(r.addVCCNs)/float64(r.vccCount))
	}
	return total, newNet, addVCC, nil
}

// Measure is the untraced run: setup samples, warm-up reps, then reps for
// cfg.Seconds, reported as the end-to-end metrics.
func Measure(w *Workload, cfg Config) (*Result, error) {
	res := &Result{Workload: w.Name}
	setup, _, _, err := setupSamples(w, cfg, cfg.SetupSamples)
	if err != nil {
		return nil, err
	}
	warmUp(w, cfg, res)
	rs := reps(w, cfg, res, cfg.Seconds, cfg.MinReps, probes{})
	if len(rs) == 0 {
		return res, nil
	}
	// Every time is reported at the reference clock.
	clock := refNominalNs / float64(res.RefNs)
	for i := range setup {
		setup[i] *= clock
	}
	hops := float64(rs[0].c.cellHops) // the same in every rep
	samples := map[string][]float64{
		"setup_s":             setup,
		"ns_per_cell_hop":     perRep(rs, func(r rep) float64 { return float64(r.wallNs) * clock / hops }),
		"cpu_ns_per_cell_hop": perRep(rs, func(r rep) float64 { return float64(r.cpuNs) * clock / hops }),
		"allocs_per_cell_hop": perRep(rs, func(r rep) float64 { return float64(r.mallocs) / hops }),
		"bytes_per_cell_hop":  perRep(rs, func(r rep) float64 { return float64(r.bytes) / hops }),
		"events_per_sdu":      perRep(rs, func(r rep) float64 { return float64(r.c.events) / float64(r.c.sdus) }),
		"max_rss_mb":          {maxRSSMiB()},
	}
	// The Run timings are not the reps' median: ns_per_cell_hop is the
	// undisturbed wall time, and cpu_ns_per_cell_hop that times the reps'
	// median ratio of CPU to wall time, which counts GC work on the other
	// core.
	ns := quietest(rs) * clock / hops
	_, cpuPerWall, _ := quartiles(perRep(rs, func(r rep) float64 { return float64(r.cpuNs) / float64(r.wallNs) }))
	runTimes := map[string]float64{"ns_per_cell_hop": ns, "cpu_ns_per_cell_hop": ns * cpuPerWall}
	for _, d := range endToEnd {
		xs := samples[d.name]
		q1, med, q3 := quartiles(xs)
		m := Metric{Name: d.name, Unit: d.unit, Value: med, Q1: q1, Median: med, Q3: q3, N: len(xs)}
		if v, ok := runTimes[d.name]; ok {
			m.Value = v
		}
		res.Metrics = append(res.Metrics, m)
	}
	return res, nil
}

// endToEnd lists the metrics Measure reports, in BENCHMARK.json order.
var endToEnd = []decl{
	{"setup_s", "s"}, {"ns_per_cell_hop", "ns"}, {"cpu_ns_per_cell_hop", "ns"}, {"allocs_per_cell_hop", "1"},
	{"bytes_per_cell_hop", "B"}, {"events_per_sdu", "1"}, {"max_rss_mb", "MiB"},
}

// quartiles follows Python's statistics.quantiles(xs, n=4) (the exclusive
// method), the definition the benchmark's spread is judged by.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
