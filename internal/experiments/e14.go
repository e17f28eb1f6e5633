package experiments

import (
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/tm"
	"repro/internal/units"
)

// E14Result is one policing-conformance run: a source offering the same
// mean load either shaped to its traffic contract or left unshaped, driven
// through a GCRA policer at the switch ingress.
type E14Result struct {
	Shaped     bool
	Contract   tm.TrafficContract
	Cells      uint64 // cells offered to the policer
	Conformed  uint64
	Tagged     uint64 // forwarded CLP=1 (SCR violation, tagging on)
	Discarded  uint64 // dropped at the ingress (PCR violation)
	Delivered  uint64 // frames reassembled at the receiver
	AALErrors  uint64 // frames broken by policer discards
	GoodputBps float64
}

// E14 is the policing-conformance experiment: the same periodic frame
// source — mean cell rate equal to the contract's SCR — runs twice through
// a switch whose input port polices a PCR+SCR/MBS contract. Shaped, the
// NIC's GCRA shaper (Interface.SetContract) spaces departures to the
// contract and every cell conforms: zero tagged, zero discarded. Unshaped,
// each frame's cells leave back-to-back at line rate; the same mean load
// blows through both buckets and the policer tags and discards, breaking
// frames. This is the board-level argument of the paper's per-VC pacing:
// shaping is not optional once the network polices.
func E14(runTime sim.Duration) ([2]E14Result, *report.Table) {
	if runTime <= 0 {
		runTime = 40 * sim.Millisecond
	}
	var out [2]E14Result
	out[0] = runE14(false, runTime)
	out[1] = runE14(true, runTime)
	tb := report.NewTable("E14: GCRA policing — shaped vs unshaped source at the same mean rate",
		"source", "cells", "conform", "tagged", "discarded", "frames ok", "aal errors", "goodput Mb/s")
	for _, r := range out {
		name := "unshaped"
		if r.Shaped {
			name = "shaped"
		}
		tb.Row(name, r.Cells, r.Conformed, r.Tagged, r.Discarded,
			r.Delivered, r.AALErrors, r.GoodputBps/1e6)
	}
	return out, tb
}

func runE14(shaped bool, runTime sim.Duration) E14Result {
	// The contract under test: PCR well below line rate, SCR at a third of
	// that, a one-frame burst allowance, and a CDVT of a few cell times to
	// absorb the TX FIFO's cell-clock quantization.
	ct := units.CellTime(units.STS3cPayload)
	contract := tm.VBRContract(150_000, 50_000, 32, 8*ct)

	net, err := core.NewNetwork(core.NetworkSpec{
		Endpoints: []core.EndpointSpec{
			{Name: "a"},
			{Name: "b"},
		},
		Switches: []core.SwitchSpec{
			{Name: "sw", Ports: 2, Rate: units.STS3cPayload, QueueDepth: 64},
		},
		Links: []core.LinkSpec{
			{Name: "a-sw", A: core.NodeRef{Node: "a"}, B: core.NodeRef{Node: "sw", Port: 0}, Delay: 5000, Seed: 20},
			{Name: "sw-b", A: core.NodeRef{Node: "sw", Port: 1}, B: core.NodeRef{Node: "b"}, Seed: 21},
		},
		VCCs: []core.VCCSpec{
			{Name: "ab", From: "a", To: "b", VC: stdVC, Contract: contract, Shape: shaped},
		},
	})
	if err != nil {
		panic(err)
	}
	kern := net.Kernel()
	vcc := net.VCC("ab")

	// Police the admitted contract where the access link meets the network.
	pol := tm.NewPolicer(contract)
	pol.TagSCR = true
	hop := vcc.Hops[0]
	net.Switch("sw").SetPolicer(hop.InPort, hop.InVC, pol)

	// Same offered load in both runs: one 4000-byte frame (84 cells under
	// AAL5) per 84/SCR seconds — a mean cell rate of exactly SCR.
	const sduSize = 4000
	const frameCells = 84
	interval := sim.Duration(float64(frameCells) / contract.SCR * 1e9)
	payload := make([]byte, sduSize)
	deadline := sim.Time(runTime)
	a := net.Endpoint("a")
	var tick func()
	tick = func() {
		if kern.Now() > deadline {
			return
		}
		a.Send(vcc.SourceVC, payload, nil)
		kern.After(interval, tick)
	}
	tick()
	kern.RunUntil(deadline)
	st := net.Endpoint("b").Stats()
	goodput := units.ThroughputBps(int64(st.Rx.Bytes), deadline)
	kern.Run()

	ps := pol.Stats()
	return E14Result{
		Shaped:     shaped,
		Contract:   contract,
		Cells:      ps.Cells,
		Conformed:  ps.Conformed,
		Tagged:     ps.Tagged,
		Discarded:  ps.Discarded,
		Delivered:  st.Rx.Packets,
		AALErrors:  st.Rx.AALErrors,
		GoodputBps: goodput,
	}
}
