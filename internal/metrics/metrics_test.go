package metrics

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/tm"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("nic.tx.cells")
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("counter %d", c.Value())
	}
	if r.Counter("nic.tx.cells") != c {
		t.Fatal("second lookup returned a different counter")
	}

	g := r.Gauge("fifo.tx.occupancy")
	g.Set(5)
	g.Set(12)
	g.Set(3)
	if g.Value() != 3 || g.Max() != 12 {
		t.Fatalf("gauge value %d max %d", g.Value(), g.Max())
	}
	g.Set(23)
	if g.Value() != 23 || g.Max() != 23 {
		t.Fatalf("gauge after rise: value %d max %d", g.Value(), g.Max())
	}
	g.Set(0)
	if g.Value() != 0 || g.Max() != 23 {
		t.Fatalf("watermark must survive decrease: value %d max %d", g.Value(), g.Max())
	}
}

func TestNilSafety(t *testing.T) {
	// Every method on a nil registry or nil instrument must be a no-op:
	// components update instruments unconditionally on the hot path.
	var r *Registry
	c, g, h, v := r.Counter("x"), r.Gauge("x"), r.Histogram("x"), r.VC(0, 1)
	if c != nil || g != nil || h != nil || v != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	c.Inc()
	c.Add(3)
	g.Set(7)
	h.Observe(100)
	v.AddCellOut()
	v.AddCellIn()
	v.AddSDUOut(10)
	v.AddSDUIn(10)
	v.Drop(DropFIFO)
	v.IncCRCError()
	v.IncLengthError()
	v.IncLostCells()
	v.IncReassemblyTimeout()
	if c.Value() != 0 || g.Value() != 0 || g.Max() != 0 || h.Count() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("nil accessors must read as zero")
	}
	snap := r.Snapshot()
	if snap.Counters == nil || len(snap.Counters) != 0 {
		t.Fatalf("nil registry snapshot: %+v", snap)
	}
}

// TestHistogramBucketsAtCellTime pins the bucket boundaries at the scale the
// simulation lives at: one cell time is 2726 ns at STS-3c (2.726 µs) and
// 680 ns at STS-12c. With 2 sub-bits the octave [2048,4096) splits at
// 2560/3072/3584, so 2726 must land in [2560,3071]; the octave [512,1024)
// splits at 640/768/896, so 680 lands in [640,767].
func TestHistogramBucketsAtCellTime(t *testing.T) {
	cases := []struct {
		v            int64
		idx          int
		lower, upper int64
	}{
		{0, 0, 0, 0},
		{3, 3, 3, 3},
		{4, 4, 4, 4},           // first log bucket: unit-wide at this scale
		{2726, 41, 2560, 3071}, // STS-3c cell time
		{680, 33, 640, 767},    // STS-12c cell time
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.idx {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.idx)
		}
		if lo := bucketLower(c.idx); lo != c.lower {
			t.Errorf("bucket %d starts at %d, want %d", c.idx, lo, c.lower)
		}
		if up := BucketUpper(c.idx); up != c.upper {
			t.Errorf("BucketUpper(%d) = %d, want %d", c.idx, up, c.upper)
		}
	}
	// Every boundary must be exhaustive and non-overlapping: each bucket
	// holds the values from just past its predecessor's upper bound to its
	// own.
	for i := 1; i < NumBuckets; i++ {
		lo, up := bucketLower(i), BucketUpper(i)
		if lo > up || bucketIndex(lo) != i || bucketIndex(up) != i {
			t.Fatalf("bucket %d spans [%d, %d], which bucketIndex does not map back to it", i, lo, up)
		}
	}
	// The worst-case relative error of a bucket's upper bound is 25%.
	for _, v := range []int64{5, 100, 2726, 1_000_000, 1 << 40} {
		i := bucketIndex(v)
		if up := BucketUpper(i); float64(up-v) > 0.25*float64(v) {
			t.Errorf("value %d reported as %d: error above 25%%", v, up)
		}
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("nic.rx.cell_delay")
	// 100 observations of one cell time: all quantiles must report the
	// exact value (bucket upper clamped to observed max).
	for i := 0; i < 100; i++ {
		h.Observe(2726)
	}
	if h.Count() != 100 || h.min != 2726 || h.Max() != 2726 {
		t.Fatalf("count %d min %v max %v", h.Count(), h.min, h.Max())
	}
	for _, p := range []float64{0.01, 0.5, 0.9, 0.99, 1} {
		if q := h.Quantile(p); q != 2726 {
			t.Fatalf("Quantile(%v) = %v, want 2726", p, q)
		}
	}
	// A bimodal distribution: 90 fast, 10 slow. p50 stays in the fast
	// bucket, p99 reaches the slow one (within the 25% bucket error).
	h2 := r.Histogram("tail")
	for i := 0; i < 90; i++ {
		h2.Observe(1000)
	}
	for i := 0; i < 10; i++ {
		h2.Observe(100_000)
	}
	if p50 := h2.Quantile(0.5); p50 < 1000 || p50 > 1250 {
		t.Fatalf("p50 = %v", p50)
	}
	if p99 := h2.Quantile(0.99); p99 < 100_000 || p99 > 125_000 {
		t.Fatalf("p99 = %v", p99)
	}
	// Negative durations clamp to zero rather than corrupting buckets.
	h3 := r.Histogram("neg")
	h3.Observe(-5)
	if h3.Count() != 1 || h3.min != 0 || h3.buckets[0] != 1 {
		t.Fatalf("negative observation: %d %v", h3.Count(), h3.min)
	}
}

func TestVCStats(t *testing.T) {
	r := NewRegistry()
	v := r.VC(1, 42)
	if r.VC(1, 42) != v {
		t.Fatal("VC row not shared")
	}
	v.AddCellOut()
	v.AddCellIn()
	v.AddSDUOut(9180)
	v.AddSDUIn(9180)
	v.Drop(DropFIFO)
	v.Drop(DropFIFO)
	v.Drop(DropAAL)
	v.IncCRCError()
	if v.CellsOut != 1 || v.CellsIn != 1 || v.BytesOut != 9180 || v.BytesIn != 9180 {
		t.Fatalf("%+v", v)
	}
	if v.Drops[DropFIFO] != 2 || v.Drops[DropAAL] != 1 {
		t.Fatalf("drops %v", v.Drops)
	}
	// Cause names are stable: they appear in JSON dumps.
	want := []string{"fifo_overflow", "unknown_vc", "sram_exhausted", "aal_error", "tx_queue_overflow",
		"policed_clp_tag", "policed_discard", "epd", "ppd", "switch_queue_overflow", "clp_threshold",
		"oam_bad", "mgmt_tx_full", "link_loss", "reassembly_timeout"}
	if len(want) != int(numDropCauses) {
		t.Fatalf("%d cause names pinned, %d causes", len(want), numDropCauses)
	}
	for i := range want {
		if c := DropCause(i); c.String() != want[i] {
			t.Fatalf("cause %d = %q, want %q", i, c.String(), want[i])
		}
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.nic.rx.cells").Add(7)
	r.Counter("a.nic.tx.cells").Add(5)
	g := r.Gauge("a.fifo.tx.occupancy")
	g.Set(9)
	g.Set(2)
	h := r.Histogram("a.nic.tx.cell_delay")
	h.Observe(2726)
	h.Observe(5452)
	v := r.VC(0, 100)
	v.AddCellOut()
	v.Drop(DropSRAM)

	snap := r.Snapshot()
	// Deterministic ordering: names sorted, VCs by (VPI, VCI).
	if snap.Counters[0].Name != "a.nic.tx.cells" || snap.Counters[1].Name != "b.nic.rx.cells" {
		t.Fatalf("counter order %+v", snap.Counters)
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, back) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", snap, back)
	}
	if back.Histograms[0].Count != 2 || len(back.Histograms[0].Buckets) != 2 {
		t.Fatalf("histogram snap %+v", back.Histograms[0])
	}
	if back.VCs[0].Drops["sram_exhausted"] != 1 || len(back.VCs[0].Drops) != 1 {
		t.Fatalf("vc drops %+v", back.VCs[0].Drops)
	}
	if names := sortedDropNames(back.VCs[0].Drops); len(names) != 1 || names[0] != "sram_exhausted" {
		t.Fatalf("drop names %v", names)
	}
	// Quantiles must be reconstructible from the dumped buckets alone.
	var cum, rank uint64
	rank = (back.Histograms[0].Count + 1) / 2
	var p50 int64
	for _, b := range back.Histograms[0].Buckets {
		cum += b.Count
		if cum >= rank {
			p50 = b.UpperNs
			break
		}
	}
	if p50 != BucketUpper(bucketIndex(2726)) {
		t.Fatalf("p50 from buckets = %d", p50)
	}
}

func TestSnapshotWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.nic.tx.cells").Add(3)
	r.Gauge("a.nic.tx.queued").Set(4)
	r.Histogram("a.nic.tx.cell_delay").Observe(2726)
	r.VC(0, 100).AddCellOut()
	var sb strings.Builder
	if err := r.Snapshot().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"counters", "gauges", "histograms", "per-VC",
		"a.nic.tx.cells", "0/100", "2.726us"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestHotPathAllocs is the zero-allocation guarantee: per-cell instrument
// updates — and the GCRA conformance check that feeds them — must not
// touch the heap. (BenchmarkHotPath reports the same via allocs/op.)
func TestHotPathAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	v := r.VC(0, 100)
	pol := tm.NewPolicer(tm.VBRContract(1e6, 1e5, 8, 100))
	pol.TagSCR = true
	var d sim.Duration = 2726
	var now sim.Time
	n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(48)
		g.Set(17)
		h.Observe(d)
		v.AddCellOut()
		v.AddCellIn()
		v.Drop(DropFIFO)
		if pol.Police(now, false) != tm.Conform {
			v.Drop(DropPolicedDiscard)
		}
		now += 700
		d++
	})
	if n != 0 {
		t.Fatalf("hot-path updates allocate %v per op", n)
	}
}

func BenchmarkHotPath(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	v := r.VC(0, 100)
	pol := tm.NewPolicer(tm.VBRContract(1e6, 1e5, 8, 100))
	pol.TagSCR = true
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
		g.Set(int64(i & 31))
		h.Observe(sim.Duration(i&4095) + 640)
		v.AddCellIn()
		if pol.Police(sim.Time(i)*700, false) != tm.Conform {
			v.Drop(DropPolicedDiscard)
		}
	}
}

// TestSnapshotDeterministic pins the satellite guarantee behind diffable
// telemetry dumps: two registries carrying the same instruments, created in
// different orders, marshal to byte-identical JSON — and so do repeated
// snapshots of the same registry (no map-iteration order leaks).
func TestSnapshotDeterministic(t *testing.T) {
	build := func(names []string) *Registry {
		r := NewRegistry()
		for _, n := range names {
			r.Counter("c." + n).Add(uint64(10 + len(n)))
			r.Gauge("g." + n).Set(int64(len(n)))
			r.Histogram("h." + n).Observe(1000)
		}
		r.VC(0, 200).AddCellIn()
		r.VC(0, 100).Drop(DropFIFO)
		r.VC(1, 50).AddCellOut()
		return r
	}
	fwd := build([]string{"alpha", "beta", "gamma", "delta"})
	rev := build([]string{"delta", "gamma", "beta", "alpha"})
	d1, err := json.Marshal(fwd.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	d2, err := json.Marshal(rev.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d1, d2) {
		t.Fatalf("insertion order leaked into snapshot JSON:\n%s\n%s", d1, d2)
	}
	d3, err := json.Marshal(fwd.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d1, d3) {
		t.Fatalf("repeated snapshots differ:\n%s\n%s", d1, d3)
	}
}

// TestEachCounterEachGauge pins the sampler's iteration contract: sorted
// order, every instrument visited, nil registry a no-op.
func TestEachCounterEachGauge(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.last").Add(3)
	r.Counter("a.first").Add(1)
	g := r.Gauge("m.mid")
	g.Set(5)
	g.Set(2)
	var cNames []string
	r.EachCounter(func(name string, v uint64) { cNames = append(cNames, name) })
	if len(cNames) != 2 || cNames[0] != "a.first" || cNames[1] != "z.last" {
		t.Fatalf("counter order %v", cNames)
	}
	var gv, gmax int64
	r.EachGauge(func(name string, v, max int64) { gv, gmax = v, max })
	if gv != 2 || gmax != 5 {
		t.Fatalf("gauge v=%d max=%d", gv, gmax)
	}
	var nilReg *Registry
	nilReg.EachCounter(func(string, uint64) { t.Fatal("nil registry visited a counter") })
	nilReg.EachGauge(func(string, int64, int64) { t.Fatal("nil registry visited a gauge") })
}

// bucketLower is the smallest value bucket i holds: one past the previous
// bucket's upper bound.
func bucketLower(i int) int64 {
	if i == 0 {
		return 0
	}
	return BucketUpper(i-1) + 1
}
