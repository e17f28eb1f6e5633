package tm

import (
	"testing"

	"repro/internal/sim"
)

func TestABRParamsNormalize(t *testing.T) {
	p := (&ABRParams{PCR: 100_000}).Normalize()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.MCR != 100 || p.ICR != 10_000 || p.Nrm != 32 {
		t.Errorf("defaults: %+v", p)
	}
	if p.RIF != 1.0/16 || p.RDF != 1.0/16 {
		t.Errorf("factor defaults: %+v", p)
	}
	// ICR must be floored at MCR.
	p = (&ABRParams{PCR: 100, MCR: 50}).Normalize()
	if p.ICR != 50 {
		t.Errorf("ICR %g, want floored at MCR 50", p.ICR)
	}
}

func TestABRParamsValidate(t *testing.T) {
	bad := []ABRParams{
		{}, // no PCR
		{PCR: 100, MCR: 200, ICR: 100, Nrm: 32, RIF: 0.1, RDF: 0.1}, // MCR > PCR
		{PCR: 100, MCR: 10, ICR: 5, Nrm: 32, RIF: 0.1, RDF: 0.1},    // ICR < MCR
		{PCR: 100, MCR: 10, ICR: 50, Nrm: 1, RIF: 0.1, RDF: 0.1},    // Nrm < 2
		{PCR: 100, MCR: 10, ICR: 50, Nrm: 32, RIF: 2, RDF: 0.1},     // RIF > 1
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: %+v validated", i, p)
		}
	}
}

func TestABRContractAdmission(t *testing.T) {
	c := TrafficContract{Class: ABR, PCR: 100_000, MCR: 5_000}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// MCR on a non-ABR class is a contract error.
	bad := TrafficContract{Class: CBR, PCR: 1000, MCR: 10}
	if err := bad.Validate(); err == nil {
		t.Error("CBR with MCR validated")
	}
	// CAC reserves MCR, not PCR: a link that could never carry both PCRs
	// still admits both MCRs.
	cac := NewCAC(0, 0)
	cac.linkCells = 12_000
	if err := cac.Admit(c); err != nil {
		t.Fatal(err)
	}
	if err := cac.Admit(c); err != nil {
		t.Fatal(err)
	}
	if got := cac.ReservedBandwidth(); got != 10_000 {
		t.Errorf("reserved %g, want 2×MCR = 10000", got)
	}
	third := c
	if err := cac.Admit(third); err == nil {
		t.Error("third MCR over budget admitted")
	}
}

func TestABRSourceFeedback(t *testing.T) {
	p := *(&ABRParams{PCR: 160_000, MCR: 1_000, ICR: 16_000}).Normalize()
	s := NewABRSource(p)
	if s.ACR() != 16_000 {
		t.Fatalf("start at %g, want ICR", s.ACR())
	}
	// No CI/NI: additive increase by RIF×PCR, clamped to ER.
	got := s.Feedback(false, false, 20_000)
	if got != 20_000 {
		t.Errorf("increase clamped to ER: %g, want 20000", got)
	}
	// NI holds.
	if got = s.Feedback(false, true, 100_000); got != 20_000 {
		t.Errorf("NI changed ACR to %g", got)
	}
	// CI: multiplicative decrease by RDF.
	want := 20_000 * (1 - p.RDF)
	if got = s.Feedback(true, false, 100_000); got != want {
		t.Errorf("CI decrease: %g, want %g", got, want)
	}
	// Repeated CI bottoms out at MCR.
	for i := 0; i < 200; i++ {
		got = s.Feedback(true, false, 100_000)
	}
	if got != p.MCR {
		t.Errorf("floor: %g, want MCR %g", got, p.MCR)
	}
	// Unbounded ER: increase tops out at PCR.
	for i := 0; i < 200; i++ {
		got = s.Feedback(false, false, 0)
	}
	if got != p.PCR {
		t.Errorf("ceiling: %g, want PCR %g", got, p.PCR)
	}
}

// TestShaperSetRateConformance is the satellite regression: a mid-flow rate
// change must hand the policing point a stream that conforms to the NEW
// rate from the first post-change cell — no credit windfall from a
// decrease, no stall from an increase.
func TestShaperSetRateConformance(t *testing.T) {
	const (
		r1 = 100_000.0 // 10 µs/cell
		r2 = 25_000.0  // 40 µs/cell
	)
	sh := NewShaper(TrafficContract{Class: ABR, PCR: r1, MCR: 100})
	// A policer at the new rate with one increment of CDVT: the slack any
	// conforming shaper is allowed.
	pol := NewPolicer(TrafficContract{Class: ABR, PCR: r2, MCR: 100,
		CDVT: sim.Duration(1e9 / r2)})

	// Emit a burst at r1, then step down to r2 mid-flow and keep emitting
	// at whatever the shaper grants. Every cell after the step must pass
	// the r2 policer.
	now := sim.Time(0)
	for i := 0; i < 50; i++ {
		now = sh.NextEligible(now)
	}
	sh.SetRate(now, r2)
	if e := sh.Eligible(); e < now {
		t.Fatalf("Eligible went backwards: %v < now %v", e, now)
	}
	prev := now
	for i := 0; i < 100; i++ {
		next := sh.NextEligible(prev)
		if v := pol.Police(next, false); v != Conform {
			t.Fatalf("cell %d at %v: %v under new-rate policer (prev %v)",
				i, next, v, prev)
		}
		prev = next
	}
	// The achieved spacing must be the new interval, not the old.
	if gap := sim.Duration(1e9 / r2); prev < now+sim.Duration(99)*gap-sim.Duration(100) {
		t.Errorf("stream faster than new rate: 100 cells in %v, want >= %v",
			prev-now, sim.Duration(99)*gap)
	}

	// Step UP mid-debt: the outstanding debt must shrink proportionally so
	// the next cell is eligible within one new-rate interval — no stall at
	// the old spacing.
	sh2 := NewShaper(TrafficContract{Class: ABR, PCR: r2, MCR: 100})
	var tt sim.Time
	for i := 0; i < 10; i++ {
		tt = sh2.NextEligible(tt)
	}
	at := tt - sim.Duration(1e9/r2)/2 // mid-interval: half an inc of debt
	sh2.SetRate(at, r1)
	if e := sh2.Eligible(); e > at+sim.Duration(1e9/r1) {
		t.Errorf("rate increase stalled: eligible %v, now %v, new inc %v",
			e, at, sim.Duration(1e9/r1))
	}
	// ...but not a windfall either: the half-interval debt survives scaled.
	if e := sh2.Eligible(); e <= at {
		t.Errorf("rate increase granted windfall: eligible %v <= now %v", e, at)
	}
}

// TestShaperSetRateIdle pins that an idle VC (bucket at or behind now)
// earns nothing from a rate change.
func TestShaperSetRateIdle(t *testing.T) {
	sh := NewShaper(TrafficContract{Class: ABR, PCR: 10_000, MCR: 100})
	now := sim.Time(1_000_000)
	sh.SetRate(now, 50_000)
	if e := sh.Eligible(); e > now {
		t.Errorf("idle shaper owes %v after SetRate", e-now)
	}
	if got := sh.peak.inc; got != 20_000 {
		t.Errorf("peak increment %v, want 20 µs (50 000 cells/s)", got)
	}
}
