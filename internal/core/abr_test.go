package core

import (
	"strings"
	"testing"

	"repro/internal/atm"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tm"
	"repro/internal/units"
)

// abrBottleneckSpec is the minimal closed loop: one 622 Mb/s source into a
// switch whose output port drains at 155, with EFCI marking and ERICA
// explicit rates armed on every port by the builder.
func abrBottleneckSpec() NetworkSpec {
	erica := netsim.ERICAConfig{TargetUtil: 0.9, Interval: 100 * sim.Microsecond}
	return NetworkSpec{
		Endpoints: []EndpointSpec{
			{Name: "a", Options: Options{Rate: Rate622}},
			{Name: "b", Options: Options{Rate: Rate155}},
		},
		Switches: []SwitchSpec{{
			Name: "sw", Ports: 2, Rate: Rate622, QueueDepth: 512,
			EFCIThreshold: 32, ERICA: &erica,
		}},
		Links: []LinkSpec{
			{Name: "a-sw", A: NodeRef{Node: "a"}, B: NodeRef{Node: "sw", Port: 0}, Delay: 10_000, Seed: 41},
			{Name: "sw-b", A: NodeRef{Node: "sw", Port: 1}, B: NodeRef{Node: "b"}, Delay: 10_000, Seed: 42},
		},
		VCCs: []VCCSpec{{
			Name: "flow", From: "a", To: "b", VC: atm.VC{VCI: 77},
			Duplex: true,
			ABR:    &tm.ABRParams{PCR: units.CellRate(Rate622), ICR: units.CellRate(Rate622) / 16, Nrm: 32},
		}},
	}
}

// TestABRClosedLoopEndToEnd drives the builder-wired loop to steady state:
// a greedy ABR source must settle onto ERICA's explicit rate for a single
// VC at a 622→155 bottleneck — 90% of the output port's cell rate — with
// forward RM cells counted at the source, turnarounds at the destination,
// and explicit rates stamped at the switch.
func TestABRClosedLoopEndToEnd(t *testing.T) {
	net, err := NewNetwork(abrBottleneckSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	net.Switch("sw").SetPortRate(1, Rate155)
	deadline := sim.Time(10 * sim.Millisecond)
	v := net.VCC("flow")
	NewSource(v.Source, v.SourceVC, 9180, deadline).Start(4)
	net.RunUntil(deadline)
	net.Run()

	acr, ok := v.Source.Interface().ACR(v.SourceVC)
	if !ok {
		t.Fatal("source lost its ABR state")
	}
	target := 0.9 * units.CellRate(Rate155)
	if acr < 0.8*target || acr > 1.1*target {
		t.Fatalf("steady-state ACR = %.0f cells/s, want near ERICA target %.0f", acr, target)
	}
	reg := net.Metrics()
	frm := reg.Counter("a.nic.abr.frm_tx").Value()
	turned := reg.Counter("b.nic.abr.turnaround").Value()
	brm := reg.Counter("a.nic.abr.brm_rx").Value()
	stamped := reg.Counter("sw.er_stamped").Value()
	if frm == 0 || turned == 0 || brm == 0 || stamped == 0 {
		t.Fatalf("loop counters: frm=%d turned=%d brm=%d er_stamped=%d — some leg never ran", frm, turned, brm, stamped)
	}
	if turned > frm || brm > turned {
		t.Fatalf("RM conservation violated: frm=%d turned=%d brm=%d", frm, turned, brm)
	}
}

// TestABRSpecValidation pins the builder's rejection of ABR spec shapes the
// loop cannot run on, and the parameter validation pass-through.
func TestABRSpecValidation(t *testing.T) {
	t.Run("needs duplex", func(t *testing.T) {
		spec := abrBottleneckSpec()
		spec.VCCs[0].Duplex = false
		if _, err := NewNetwork(spec); err == nil || !strings.Contains(err.Error(), "Duplex") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("bad params", func(t *testing.T) {
		spec := abrBottleneckSpec()
		spec.VCCs[0].ABR = &tm.ABRParams{PCR: 1000, MCR: 2000}
		if _, err := NewNetwork(spec); err == nil {
			t.Fatal("MCR > PCR accepted")
		}
	})
}
