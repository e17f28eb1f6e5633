package core_test

import (
	"fmt"

	"repro/internal/core"
)

// The complete life of a packet through a two-station network: endpoints A
// and B on a 2 km fiber, with one connection from A to B.
func Example() {
	net, err := core.NewNetwork(core.NetworkSpec{
		Endpoints: []core.EndpointSpec{{Name: "A"}, {Name: "B"}},
		Links: []core.LinkSpec{{Name: "ab",
			A: core.NodeRef{Node: "A"}, B: core.NodeRef{Node: "B"}, DistanceKm: 2}},
		VCCs: []core.VCCSpec{{Name: "ab", From: "A", To: "B", VC: core.VC{VCI: 42}}},
	})
	if err != nil {
		panic(err)
	}
	a, b := net.Endpoint("A"), net.Endpoint("B")
	b.OnReceive(func(p core.Packet) {
		fmt.Printf("B received %d bytes in %d cells\n", len(p.Data), p.Cells)
	})
	if err := a.Send(net.VCC("ab").SourceVC, make([]byte, 9180), nil); err != nil {
		panic(err)
	}
	net.Run()
	st := b.Stats()
	fmt.Printf("host interrupts on B: %d\n", b.Host().Interrupts())
	fmt.Printf("cells on the wire: %d\n", st.Rx.Cells)
	// Output:
	// B received 9180 bytes in 192 cells
	// host interrupts on B: 1
	// cells on the wire: 192
}

// Per-VC pacing: the usage-parameter-control knob.
func Example_pacing() {
	vc := core.VC{VCI: 7}
	net, _ := core.NewNetwork(core.NetworkSpec{
		Endpoints: []core.EndpointSpec{{Name: "A"}, {Name: "B"}},
		Links: []core.LinkSpec{{Name: "ab",
			A: core.NodeRef{Node: "A"}, B: core.NodeRef{Node: "B"}, DistanceKm: 2}},
		VCCs: []core.VCCSpec{{Name: "ab", From: "A", To: "B", VC: vc}},
	})
	a := net.Endpoint("A")
	// 100k cells/s ≈ 38.4 Mb/s of SAR payload.
	if err := a.SetPeakCellRate(vc, 100_000); err != nil {
		panic(err)
	}
	var deliveredAt string
	net.Endpoint("B").OnReceive(func(p core.Packet) { deliveredAt = p.At.String() })
	a.Send(vc, make([]byte, 480), nil) // 11 cells, 10 µs apart
	net.Run()
	fmt.Println("paced delivery completed at", deliveredAt)
	// Output:
	// paced delivery completed at 219.673us
}
