package sonetlink

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"

	"repro/internal/atm"
	"repro/internal/bus"
	"repro/internal/host"
	"repro/internal/metrics"
	"repro/internal/nic"
	"repro/internal/sim"
	"repro/internal/sonet"
	"repro/internal/tm"
	"repro/internal/trace"
)

// sonetRun captures everything a golden check pins: each delivered SDU with
// its delivery time, the link and interface counters, and the flight
// recorder's spans in canonical order.
type sonetRun struct {
	deliveries []string
	metrics    string
	spans      []trace.Span
}

// digest is a SHA-256 over the run's deliveries, metrics text and spans,
// plus any extra lines the caller pins alongside.
func (r sonetRun) digest(extra ...string) string {
	h := sha256.New()
	for _, d := range r.deliveries {
		fmt.Fprintln(h, d)
	}
	fmt.Fprint(h, r.metrics)
	for _, s := range r.spans {
		fmt.Fprintf(h, "span %d %d/%d %d %d\n", s.Stage, s.VC.VPI, s.VC.VCI, int64(s.Start), int64(s.End))
	}
	// The pinned digests were recorded over text that ends with a count of
	// unmatched span ends. Spans are recorded whole, so that count is zero,
	// and the constant line keeps every pin valid.
	fmt.Fprint(h, "unmatched 0\n")
	for _, e := range extra {
		fmt.Fprintln(h, e)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// finish snapshots the registry and the recorder's spans into the run.
func (r *sonetRun) finish(t *testing.T, reg *metrics.Registry, rec *trace.Recorder) {
	t.Helper()
	var sb bytes.Buffer
	if err := reg.Snapshot().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	r.metrics = sb.String()
	r.spans = rec.Spans()
	// (start, stage, vc, end) covers every field, so the order is canonical.
	sort.Slice(r.spans, func(i, j int) bool {
		a, b := r.spans[i], r.spans[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Stage != b.Stage {
			return a.Stage < b.Stage
		}
		if a.VC != b.VC {
			return a.VC.VPI < b.VC.VPI || a.VC.VPI == b.VC.VPI && a.VC.VCI < b.VC.VCI
		}
		return a.End < b.End
	})
}

func runSonetWorkload(t *testing.T, rate sonet.Rate) sonetRun {
	t.Helper()
	k := sim.NewKernel()
	reg := metrics.NewRegistry()
	rec := trace.NewRecorder(k, 1<<16)
	mk := func(name string) *nic.Interface {
		cfg := nic.DefaultConfig(name)
		cfg.PayloadRate = rate.PayloadRate()
		cfg.RxFifoDepth = 128
		cfg.Metrics = reg
		iface, err := nic.New(k, cfg, host.New(k, host.DefaultConfig()), bus.New(k, bus.DefaultConfig()), atm.NewPool(0))
		if err != nil {
			t.Fatal(err)
		}
		return iface
	}
	a, b := mk("a"), mk("b")
	_, err := Connect(k, Config{
		Rate: rate, Delay: 10_000, Seed: 3,
		Metrics: reg, Recorder: rec,
	}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	var run sonetRun
	b.OnReceive(func(d nic.Delivered) {
		run.deliveries = append(run.deliveries,
			fmt.Sprintf("t=%d vc=%v len=%d head=%x", int64(k.Now()), d.VC, len(d.SDU), d.SDU[:4]))
	})
	a.OpenVC(vc())
	b.OpenVC(vc())
	for i := 0; i < 12; i++ {
		if err := a.Send(vc(), pkt(700+331*i), nil); err != nil {
			t.Fatal(err)
		}
	}
	k.Run()
	run.finish(t, reg, rec)
	return run
}

// TestSonetFramedGolden pins the SONET path's per-cell delivery at both
// line rates: the same SDUs at the same nanoseconds, the same metrics
// registry byte-for-byte, and the same trace spans.
func TestSonetFramedGolden(t *testing.T) {
	for _, c := range []struct {
		rate   sonet.Rate
		digest string
	}{
		{sonet.STS3c, "55b9de3e619ea82085c9c123a81e705caeb3dd6f0a88b8d3822e595b9530d3e1"},
		{sonet.STS12c, "4aa9ba844dceae9ecb1cea390a9ef0b0b3fa85ed52ba069762cec13b2d4b325d"},
	} {
		run := runSonetWorkload(t, c.rate)
		if len(run.deliveries) != 12 {
			t.Fatalf("%v: delivered %d of 12", c.rate, len(run.deliveries))
		}
		if got := run.digest(); got != c.digest {
			t.Errorf("%v: digest %s, pinned %s (%d spans)",
				c.rate, got, c.digest, len(run.spans))
		}
	}
}

// runSonetABRWorkload is the marked-up variant of runSonetWorkload: an ABR
// connection whose data cells are all EFCI-marked on the way into the
// framer, so the recovery path carries congested user cells in one
// direction and turned-around RM cells in the other.
func runSonetABRWorkload(t *testing.T) (sonetRun, float64) {
	t.Helper()
	k := sim.NewKernel()
	reg := metrics.NewRegistry()
	rec := trace.NewRecorder(k, 1<<16)
	mk := func(name string) *nic.Interface {
		cfg := nic.DefaultConfig(name)
		cfg.RxFifoDepth = 128
		cfg.Metrics = reg
		iface, err := nic.New(k, cfg, host.New(k, host.DefaultConfig()), bus.New(k, bus.DefaultConfig()), atm.NewPool(0))
		if err != nil {
			t.Fatal(err)
		}
		return iface
	}
	a, b := mk("a"), mk("b")
	link, err := Connect(k, Config{
		Rate: sonet.STS3c, Delay: 10_000, Seed: 3,
		Metrics: reg, Recorder: rec,
	}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	a.OpenVC(vc())
	b.OpenVC(vc())
	if err := a.SetABR(vc(), tm.ABRParams{PCR: 100_000, ICR: 50_000, Nrm: 32}); err != nil {
		t.Fatal(err)
	}
	a.AttachSink(&efciMarker{dst: link.AtoB})
	var run sonetRun
	b.OnReceive(func(d nic.Delivered) {
		run.deliveries = append(run.deliveries,
			fmt.Sprintf("t=%d vc=%v len=%d head=%x", int64(k.Now()), d.VC, len(d.SDU), d.SDU[:4]))
	})
	for i := 0; i < 8; i++ {
		if err := a.Send(vc(), pkt(2000+777*i), nil); err != nil {
			t.Fatal(err)
		}
	}
	k.Run()
	run.finish(t, reg, rec)
	acr, _ := a.ACR(vc())
	return run, acr
}

// TestSonetEFCIMarkedGolden pins a workload where every user cell carries
// the EFCI bit and the reverse direction carries CI-bearing backward RM
// cells: the SDUs and their nanoseconds, the registry (including the NIC's
// abr counters), the spans and the final ACR. A recovery path that dropped
// or reordered the congestion bit would move all four.
func TestSonetEFCIMarkedGolden(t *testing.T) {
	run, acr := runSonetABRWorkload(t)
	if len(run.deliveries) != 8 {
		t.Fatalf("delivered %d of 8", len(run.deliveries))
	}
	if acr >= 50_000 || acr <= 0 {
		t.Fatalf("ACR = %.0f, want inside (0, ICR): CI feedback missing", acr)
	}
	const want = "b0256021a72cbf158035b369a60fab02ff4a8a555241f7599117e978169c8253"
	if got := run.digest(fmt.Sprintf("acr %v", acr)); got != want {
		t.Errorf("digest %s, pinned %s (acr %v, %d spans)",
			got, want, acr, len(run.spans))
	}
}
