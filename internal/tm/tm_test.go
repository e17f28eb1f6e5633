package tm

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/units"
)

func TestContractValidate(t *testing.T) {
	cases := []struct {
		name string
		c    TrafficContract
		ok   bool
	}{
		{"cbr", CBRContract(1000, 0), true},
		{"vbr", VBRContract(1000, 100, 10, 500), true},
		{"ubr", UBRContract(units.STS3cPayload), true},
		{"no pcr", TrafficContract{Class: UBR}, false},
		{"scr above pcr", TrafficContract{Class: RtVBR, PCR: 100, SCR: 200, MBS: 2}, false},
		{"scr without mbs", TrafficContract{Class: RtVBR, PCR: 100, SCR: 50}, false},
		{"mbs without scr", TrafficContract{Class: RtVBR, PCR: 100, MBS: 5}, false},
		{"negative cdvt", TrafficContract{Class: UBR, PCR: 100, CDVT: -1}, false},
		{"cbr with scr", TrafficContract{Class: CBR, PCR: 100, SCR: 50, MBS: 2}, false},
		{"bad class", TrafficContract{Class: ServiceClass(9), PCR: 100}, false},
	}
	for _, tc := range cases {
		err := tc.c.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: expected a validation error", tc.name)
		}
	}
}

func TestBurstTolerance(t *testing.T) {
	// PCR 1e6 c/s (T=1000ns), SCR 1e5 c/s (Ts=10000ns), MBS 5:
	// BT = (5-1)*(10000-1000) = 36000ns.
	c := VBRContract(1e6, 1e5, 5, 0)
	if got, want := c.BurstTolerance(), sim.Duration(36000); got != want {
		t.Fatalf("BurstTolerance = %v, want %v", got, want)
	}
	cbr := CBRContract(1e6, 0)
	if got := cbr.BurstTolerance(); got != 0 {
		t.Fatalf("CBR BurstTolerance = %v, want 0", got)
	}
}

// TestPolicerSingleBucket: cells at exactly 1/PCR conform; a cell arriving
// early by more than CDVT is discarded; within CDVT it conforms.
func TestPolicerSingleBucket(t *testing.T) {
	c := CBRContract(1e6, 100) // T = 1000ns, CDVT = 100ns
	p := NewPolicer(c)

	now := sim.Time(0)
	for i := 0; i < 10; i++ {
		if v := p.Police(now, false); v != Conform {
			t.Fatalf("cell %d at exact spacing: %v, want conform", i, v)
		}
		now += 1000
	}
	// Next conforming slot is now; arrive 200ns early — outside CDVT.
	if v := p.Police(now-200, false); v != Discard {
		t.Fatalf("200ns early: %v, want discard", v)
	}
	// A discarded cell must not advance TAT: arriving 50ns early (inside
	// CDVT) still conforms.
	if v := p.Police(now-50, false); v != Conform {
		t.Fatalf("50ns early (inside CDVT): %v, want conform", v)
	}
	st := p.Stats()
	if st.Conformed != 11 || st.Discarded != 1 || st.Tagged != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestPolicerDualBucket: MBS cells back-to-back at PCR conform; cell
// MBS+1 violates the sustained bucket.
func TestPolicerDualBucket(t *testing.T) {
	const mbs = 5
	c := VBRContract(1e6, 1e5, mbs, 0) // T=1000, Ts=10000, BT=36000
	p := NewPolicer(c)

	now := sim.Time(0)
	for i := 0; i < mbs; i++ {
		if v := p.Police(now, false); v != Conform {
			t.Fatalf("burst cell %d: %v, want conform", i, v)
		}
		now += 1000
	}
	// Cell mbs (6th), still at PCR spacing: sustained bucket is out of
	// tolerance. Without tagging it is discarded.
	if v := p.Police(now, false); v != Discard {
		t.Fatalf("cell past MBS: %v, want discard", v)
	}

	// With tagging enabled it is forwarded CLP=1 instead.
	p2 := NewPolicer(c)
	p2.TagSCR = true
	now = 0
	for i := 0; i < mbs; i++ {
		p2.Police(now, false)
		now += 1000
	}
	if v := p2.Police(now, false); v != TagCLP {
		t.Fatalf("cell past MBS with TagSCR: %v, want tag-clp", v)
	}
	// A cell that already carries CLP=1 is not re-tagged: discard.
	if v := p2.Police(now+1000, true); v != Discard {
		t.Fatalf("clp=1 cell past MBS: %v, want discard", v)
	}

	// After idling one full sustained period per burst cell, the burst
	// credit is back.
	now += sim.Time(mbs * 10000)
	for i := 0; i < mbs; i++ {
		if v := p2.Police(now, false); v != Conform {
			t.Fatalf("post-idle burst cell %d: %v, want conform", i, v)
		}
		now += 1000
	}
}

// TestShaperPassesOwnPolicer is the shaper/policer contract: a stream
// emitted at the shaper's NextEligible times passes a policer enforcing
// the same contract with zero non-conforming cells — even with no CDVT.
func TestShaperPassesOwnPolicer(t *testing.T) {
	for _, c := range []TrafficContract{
		CBRContract(353208, 0),
		VBRContract(353208, 35000, 12, 0),
		VBRContract(1e6, 9.7e5, 3, 0), // SCR close to PCR
	} {
		sh := NewShaper(c)
		p := NewPolicer(c)
		now := sim.Time(0)
		for i := 0; i < 10000; i++ {
			if v := p.Police(now, false); v != Conform {
				t.Fatalf("%v: cell %d at %v: %v, want conform", c, i, now, v)
			}
			next := sh.NextEligible(now)
			if next < now {
				t.Fatalf("%v: NextEligible went backwards: %v < %v", c, next, now)
			}
			now = next
		}
		if st := p.Stats(); st.Tagged+st.Discarded != 0 {
			t.Fatalf("%v: %d non-conforming cells from shaped stream", c, st.Tagged+st.Discarded)
		}
	}
}

// TestShaperBurstThenSustain: a dual-bucket shaper lets MBS cells out at
// PCR spacing, then falls back to SCR spacing.
func TestShaperBurstThenSustain(t *testing.T) {
	const mbs = 5
	c := VBRContract(1e6, 1e5, mbs, 0) // T=1000, Ts=10000
	sh := NewShaper(c)
	now := sim.Time(0)
	var gaps []sim.Duration
	for i := 0; i < mbs+3; i++ {
		next := sh.NextEligible(now)
		gaps = append(gaps, sim.Duration(next-now))
		now = next
	}
	// First mbs-1 gaps are the peak increment; once the burst tolerance is
	// spent the gap is the sustained increment.
	for i, g := range gaps {
		if i < mbs-1 {
			if g != 1000 {
				t.Fatalf("gap %d = %v, want 1000 (PCR)", i, g)
			}
		} else if g != 10000 {
			t.Fatalf("gap %d = %v, want 10000 (SCR)", i, g)
		}
	}
}

func TestVerdictString(t *testing.T) {
	for v, want := range map[Verdict]string{
		Conform: "conform", TagCLP: "tag-clp", Discard: "discard",
	} {
		if v.String() != want {
			t.Errorf("%d.String() = %q, want %q", v, v.String(), want)
		}
	}
	if s := Verdict(9).String(); !strings.Contains(s, "9") {
		t.Errorf("unknown verdict string %q", s)
	}
}

func TestCACAccounting(t *testing.T) {
	// Link: 100k cells/s equivalent. Use a synthetic rate.
	rate := units.BitRate(100_000 * 8 * 53) // exactly 100k cells/s
	cac := NewCAC(rate, 100)

	cbr := CBRContract(60_000, 0)
	if err := cac.Admit(cbr); err != nil {
		t.Fatalf("admit cbr: %v", err)
	}
	if got := cac.ReservedBandwidth(); got != 60_000 {
		t.Fatalf("reserved bw = %g, want 60000", got)
	}

	// VBR reserves SCR + MBS buffer.
	vbr := VBRContract(80_000, 30_000, 40, 0)
	if err := cac.Admit(vbr); err != nil {
		t.Fatalf("admit vbr: %v", err)
	}
	if got := cac.ReservedBandwidth(); got != 90_000 {
		t.Fatalf("reserved bw = %g, want 90000", got)
	}
	if got := cac.ReservedBuffer(); got != 40 {
		t.Fatalf("reserved buf = %d, want 40", got)
	}

	// Another CBR at 20k cells/s exceeds the remaining 10k: rejected.
	if err := cac.Admit(CBRContract(20_000, 0)); err == nil {
		t.Fatal("over-subscribing CBR admitted")
	}
	// A VBR whose MBS exceeds the remaining buffer: rejected.
	if err := cac.Admit(VBRContract(10_000, 5_000, 70, 0)); err == nil {
		t.Fatal("over-subscribing buffer admitted")
	}
	// UBR reserves nothing and fits while bandwidth remains.
	if err := cac.Admit(UBRContract(rate)); err != nil {
		t.Fatalf("admit ubr: %v", err)
	}
	if got := cac.Admitted(); got != 3 {
		t.Fatalf("admitted = %d, want 3", got)
	}

	// Release the VBR; the 20k CBR now fits.
	cac.Release(vbr)
	if err := cac.Admit(CBRContract(20_000, 0)); err != nil {
		t.Fatalf("admit after release: %v", err)
	}
	if got := cac.Admitted(); got != 3 {
		t.Fatalf("admitted = %d after release and re-admit, want 3", got)
	}
}

func TestCACRejectsUBRWhenSaturated(t *testing.T) {
	rate := units.BitRate(10_000 * 8 * 53)
	cac := NewCAC(rate, 100)
	if err := cac.Admit(CBRContract(10_000, 0)); err != nil {
		t.Fatalf("admit: %v", err)
	}
	if err := cac.Admit(UBRContract(rate)); err == nil {
		t.Fatal("UBR admitted on a fully reserved link")
	}
}

func TestPolicerZeroAlloc(t *testing.T) {
	p := NewPolicer(VBRContract(1e6, 1e5, 5, 100))
	p.TagSCR = true
	now := sim.Time(0)
	allocs := testing.AllocsPerRun(1000, func() {
		p.Police(now, false)
		now += 700
	})
	if allocs != 0 {
		t.Fatalf("Police allocates %v/op, want 0", allocs)
	}
	sh := NewShaper(VBRContract(1e6, 1e5, 5, 0))
	emit := sim.Time(0)
	allocs = testing.AllocsPerRun(1000, func() {
		emit = sh.NextEligible(emit)
	})
	if allocs != 0 {
		t.Fatalf("NextEligible allocates %v/op, want 0", allocs)
	}
}
