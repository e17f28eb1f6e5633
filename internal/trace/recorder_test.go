package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"repro/internal/atm"
	"repro/internal/metrics"
	"repro/internal/sim"
)

var recVC = atm.VC{VPI: 0, VCI: 100}

// TestNilRecorderIsFree pins the disabled-path contract: a nil recorder
// hands out nil spans, and every span method is a no-op on a nil receiver.
func TestNilRecorderIsFree(t *testing.T) {
	var r *Recorder
	sp := r.Stage("a", "tx.fifo")
	if sp != nil {
		t.Fatalf("nil recorder returned non-nil span")
	}
	// None of these may panic.
	sp.Span(recVC, 0)
	sp.Point(recVC)
	sp.Drop(recVC, metrics.DropFIFO)
	r.SampleCells(4)
}

// TestSpans pins what Spans selects: each span as its stage recorded it,
// whole, in recording (end-time) order, with drops and points left out.
func TestSpans(t *testing.T) {
	k := sim.NewKernel()
	r := NewRecorder(k, 64)
	sp := r.Stage("a", "tx.fifo")
	other := atm.VC{VCI: 200}
	k.At(300, func() { sp.Span(recVC, 100) })
	k.At(400, func() { sp.Drop(recVC, metrics.DropFIFO) })
	k.At(500, func() { sp.Span(other, 450) })
	k.At(600, func() { sp.Span(recVC, 150) })
	k.Run()
	spans := r.Spans()
	want := []Span{
		{Stage: sp.id, VC: recVC, Start: 100, End: 300},
		{Stage: sp.id, VC: other, Start: 450, End: 500},
		{Stage: sp.id, VC: recVC, Start: 150, End: 600},
	}
	if len(spans) != len(want) {
		t.Fatalf("spans %+v, want %+v", spans, want)
	}
	for i := range want {
		if spans[i] != want[i] {
			t.Fatalf("span %d = %+v, want %+v", i, spans[i], want[i])
		}
	}
}

// TestWraparound pins the flight-recorder semantics: the ring keeps the
// LAST capacity events in chronological order and counts what it evicted.
func TestWraparound(t *testing.T) {
	k := sim.NewKernel()
	r := NewRecorder(k, 8)
	sp := r.Stage("a", "s")
	for i := 0; i < 20; i++ {
		at := sim.Time(i * 10)
		k.At(at, func() { sp.Span(recVC, at-5) })
	}
	k.Run()
	if r.Len() != 8 {
		t.Fatalf("len %d, want 8", r.Len())
	}
	if r.Evicted() != 12 {
		t.Fatalf("evicted %d, want 12", r.Evicted())
	}
	evs := r.Events()
	if len(evs) != 8 {
		t.Fatalf("events %d", len(evs))
	}
	// Most recent window, oldest first: times 120..190.
	for i, ev := range evs {
		want := sim.Time((12 + i) * 10)
		if ev.At != want {
			t.Fatalf("event %d at %v, want %v", i, ev.At, want)
		}
	}
	// Eviction takes whole spans: every span left is exact.
	spans := r.Spans()
	if len(spans) != 8 {
		t.Fatalf("spans %d after wraparound, want 8", len(spans))
	}
	for _, s := range spans {
		if s.End-s.Start != 5 {
			t.Fatalf("span %+v after wraparound, want 5 ns", s)
		}
	}
}

func TestEnableFreezes(t *testing.T) {
	k := sim.NewKernel()
	r := NewRecorder(k, 16)
	sp := r.Stage("a", "s")
	r.Enable(false)
	k.At(10, func() { sp.Span(recVC, 5); sp.Point(recVC) })
	k.Run()
	if r.Len() != 0 {
		t.Fatalf("recorded %d events while disabled", r.Len())
	}
}

// TestSampleCellsPairing pins the sampling guarantee: every nth span per
// (stage, VC) is kept, each with its own start and end, and each VC is
// counted on its own.
func TestSampleCellsPairing(t *testing.T) {
	k := sim.NewKernel()
	r := NewRecorder(k, 256)
	r.SampleCells(3)
	sp := r.Stage("a", "s")
	other := atm.VC{VCI: 200}
	// Cell i of each VC enters at 100i and leaves at 100i+7.
	for i := 0; i < 30; i++ {
		at := sim.Time(i * 100)
		k.At(at+7, func() { sp.Span(recVC, at); sp.Span(other, at) })
	}
	k.Run()
	spans := r.Spans()
	if len(spans) != 20 {
		t.Fatalf("spans %d, want 10 per VC", len(spans))
	}
	for i, s := range spans {
		if want := sim.Time(i/2*300) + 7; s.End != want || s.End-s.Start != 7 {
			t.Fatalf("span %d = %+v, want cell %d's, 7 ns", i, s, i/2*3)
		}
	}
}

func TestSampleCellsKeepsDrops(t *testing.T) {
	k := sim.NewKernel()
	r := NewRecorder(k, 256)
	r.SampleCells(1000) // thin the healthy stream to almost nothing
	sp := r.Stage("a", "s")
	for i := 0; i < 10; i++ {
		k.At(sim.Time(i), func() { sp.Drop(recVC, metrics.DropFIFO) })
	}
	k.Run()
	drops := 0
	for _, ev := range r.Events() {
		if ev.Kind == KindDrop {
			drops++
		}
	}
	if drops != 10 {
		t.Fatalf("drops recorded %d, want all 10", drops)
	}
}

func TestStageRegistrationIsStable(t *testing.T) {
	k := sim.NewKernel()
	r := NewRecorder(k, 16)
	s1 := r.Stage("a", "tx.fifo")
	s2 := r.Stage("b", "rx.fifo")
	if again := r.Stage("a", "tx.fifo"); again != s1 {
		t.Fatalf("re-registration returned a new span")
	}
	if n, st := r.StageName(s1.id); n != "a" || st != "tx.fifo" {
		t.Fatalf("stage 0 = %s/%s", n, st)
	}
	if n, st := r.StageName(s2.id); n != "b" || st != "rx.fifo" {
		t.Fatalf("stage 1 = %s/%s", n, st)
	}
}

func TestResidency(t *testing.T) {
	k := sim.NewKernel()
	r := NewRecorder(k, 64)
	sp := r.Stage("a", "s")
	for i := 0; i < 4; i++ {
		at := sim.Time(i * 1000)
		k.At(at+100, func() { sp.Span(recVC, at) })
	}
	k.At(9000, func() { sp.Drop(recVC, metrics.DropFIFO) })
	k.Run()
	stats := r.Residency()
	if len(stats) != 1 {
		t.Fatalf("stats %d", len(stats))
	}
	st := stats[0]
	if st.Node != "a" || st.Stage != "s" || st.Count != 4 || st.Drops != 1 {
		t.Fatalf("%+v", st)
	}
	if st.Total != 400 {
		t.Fatalf("total %v, want 400ns", st.Total)
	}
	if st.Max < 100 || st.Mean < 50 {
		t.Fatalf("mean %v max %v", st.Mean, st.Max)
	}
}

func TestWriteTraceJSONShape(t *testing.T) {
	k := sim.NewKernel()
	r := NewRecorder(k, 64)
	sp := r.Stage("a", "tx.fifo")
	k.At(3000, func() { sp.Span(recVC, 1000) })
	k.At(4000, func() { sp.Drop(recVC, metrics.DropFIFO) })
	k.Run()
	var buf bytes.Buffer
	if err := r.WriteTraceJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("export is not JSON: %v", err)
	}
	var phases []string
	for _, ev := range tf.TraceEvents {
		phases = append(phases, ev["ph"].(string))
	}
	joined := strings.Join(phases, "")
	if !strings.Contains(joined, "X") || !strings.Contains(joined, "i") || !strings.Contains(joined, "M") {
		t.Fatalf("phases %v missing X/i/M", phases)
	}
	// Deterministic: a second export is byte-identical.
	var buf2 bytes.Buffer
	if err := r.WriteTraceJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("export not deterministic")
	}
}

func TestWriteBreakdown(t *testing.T) {
	k := sim.NewKernel()
	r := NewRecorder(k, 64)
	sp := r.Stage("a", "tx.fifo")
	k.At(500, func() { sp.Span(recVC, 0) })
	k.Run()
	var buf bytes.Buffer
	if err := r.WriteBreakdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "a/tx.fifo") || !strings.Contains(out, "500ns") {
		t.Fatalf("breakdown missing stage row:\n%s", out)
	}
}

// TestConcurrentWorlds runs independent kernel+recorder worlds in parallel —
// the sweep-runner usage pattern. Each world is single-threaded; the race
// detector (make verify) confirms no shared state leaks between them.
func TestConcurrentWorlds(t *testing.T) {
	var wg sync.WaitGroup
	results := make([]int, 8)
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := sim.NewKernel()
			r := NewRecorder(k, 1024)
			sp := r.Stage("a", "s")
			for i := 0; i < 200; i++ {
				at := sim.Time(i * 10)
				k.At(at+5, func() { sp.Span(recVC, at) })
			}
			k.Run()
			results[w] = len(r.Spans())
		}()
	}
	wg.Wait()
	for w, n := range results {
		if n != 200 {
			t.Fatalf("world %d recorded %d spans, want 200", w, n)
		}
	}
}

// TestSamplerSeries pins the periodic sampler: rows at every period up to
// the stop time, sorted stable columns, and a kernel that still drains.
func TestSamplerSeries(t *testing.T) {
	k := sim.NewKernel()
	reg := metrics.NewRegistry()
	c := reg.Counter("z.cells")
	g := reg.Gauge("a.occ")
	s := NewSampler(k, reg, 100)
	s.Start(1000)
	for i := 1; i <= 20; i++ {
		at := sim.Time(i * 50)
		k.At(at, func() { c.Inc(); g.Set(int64(at)) })
	}
	k.Run() // terminates: the sampler stops re-arming past the stop time
	rows := s.Rows()
	if len(rows) != 10 {
		t.Fatalf("rows %d, want 10", len(rows))
	}
	if rows[0].At != 100 || rows[9].At != 1000 {
		t.Fatalf("row times %v..%v", rows[0].At, rows[9].At)
	}
	// Counters snapshot at the tick. The tick at t=100 was posted before
	// the t=100 increment, so it sees only the t=50 one — same-timestamp
	// events run in posting order.
	if rows[0].Values["z.cells"] != 1 {
		t.Fatalf("first row cells %v", rows[0].Values["z.cells"])
	}
	// The second tick was re-armed at t=100, AFTER the t=200 increment was
	// posted, so it runs last at t=200 and sees all four increments.
	if rows[1].Values["z.cells"] != 4 {
		t.Fatalf("second row cells %v", rows[1].Values["z.cells"])
	}
	var csvBuf bytes.Buffer
	if err := s.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != 11 {
		t.Fatalf("csv lines %d, want header+10", len(lines))
	}
	if lines[0] != "t_ns,a.occ,z.cells" {
		t.Fatalf("csv header %q not sorted", lines[0])
	}
	var jsonBuf bytes.Buffer
	if err := s.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	var back []struct {
		T      int64              `json:"t_ns"`
		Values map[string]float64 `json:"values"`
	}
	if err := json.Unmarshal(jsonBuf.Bytes(), &back); err != nil {
		t.Fatalf("sampler JSON: %v", err)
	}
	if len(back) != 10 || back[9].T != 1000 {
		t.Fatalf("json rows %d last %d", len(back), back[len(back)-1].T)
	}
}
