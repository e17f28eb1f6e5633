// Package experiments regenerates the paper's evaluation: one function per
// reconstructed table/figure (E1…E21; see DESIGN.md for the index and the
// reconstruction caveat). Each returns a machine-readable result plus a
// report.Table or report.Series rendering, so the same code backs the
// atmbench binary, the test suite's shape assertions, and the result
// digests in rigs_golden_test.go.
package experiments

import (
	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/units"
)

// stdVC is the connection every end-to-end experiment runs on.
var stdVC = atm.VC{VPI: 0, VCI: 100}

// build constructs a rig's network. Rig specs are fixed literals: an error
// is a programming mistake and panics.
func build(spec core.NetworkSpec) *core.Network {
	net, err := core.NewNetwork(spec)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return net
}

// pair declares the two-station rig the paper's evaluation runs on: a and b
// joined by one fiber "ab" (forward direction a→b) with link's delay, loss
// and seed, carrying vccs.
func pair(a, b core.EndpointSpec, link core.LinkSpec, vccs ...core.VCCSpec) core.NetworkSpec {
	link.Name = "ab"
	link.A, link.B = core.NodeRef{Node: a.Name}, core.NodeRef{Node: b.Name}
	return core.NetworkSpec{
		Endpoints: []core.EndpointSpec{a, b},
		Links:     []core.LinkSpec{link},
		VCCs:      vccs,
	}
}

// runPair builds the standard pair — a and b with identical options, stdVC
// open a→b — runs drive to configure sources, then runs the kernel until
// deadline and drains in-flight work. It returns the receiving endpoint.
func runPair(opts core.Options, link core.LinkSpec, deadline sim.Time,
	drive func(k *sim.Kernel, a, b *core.Endpoint)) *core.Endpoint {
	net := build(pair(
		core.EndpointSpec{Name: "a", Options: opts},
		core.EndpointSpec{Name: "b", Options: opts},
		link, core.VCCSpec{Name: "ab", From: "a", To: "b", VC: stdVC}))
	k := net.Kernel()
	b := net.Endpoint("b")
	drive(k, net.Endpoint("a"), b)
	k.RunUntil(deadline)
	k.Run() // drain in-flight work
	return b
}

// sduCeilingBps returns the physics ceiling for SDU goodput: the payload
// rate scaled by SDU bytes per wire byte for an n-byte SDU over the given
// AAL cell count.
func sduCeilingBps(rate units.BitRate, sduBytes, cells int) float64 {
	return float64(rate) * float64(sduBytes) / float64(cells*atm.CellSize)
}
