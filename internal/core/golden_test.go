package core

// Golden equivalence at the builder level: a NewNetwork topology must evolve
// identically — cell timing and wire bytes — under the timing-wheel and the
// heap kernel. The paper's rigs used to be wired by hand from netsim/phy
// primitives; the digests in internal/experiments/rigs_golden_test.go were
// recorded from that wiring and pin every rig's builder form to it.

import (
	"bytes"
	"testing"

	"repro/internal/atm"
	"repro/internal/sim"
	"repro/internal/units"
)

// arrival is one cell crossing the tap point: when, and the full 53-byte
// wire image.
type arrival struct {
	at   sim.Time
	wire [atm.CellSize]byte
}

// tapInto wraps sink so every delivered cell is recorded before hand-off.
// Recording is a plain function call at delivery time, so it cannot perturb
// the simulation.
func tapInto(t *testing.T, out *[]arrival, k *sim.Kernel, sink atm.CellConsumer) atm.CellConsumer {
	return atm.SinkFunc(func(c *atm.Cell) {
		var a arrival
		a.at = k.Now()
		if err := c.Encode(a.wire[:]); err != nil {
			t.Fatal(err)
		}
		*out = append(*out, a)
		sink.DeliverCell(c)
	})
}

func compareArrivals(t *testing.T, want, got []arrival) {
	t.Helper()
	if len(want) == 0 {
		t.Fatal("no cells crossed the tap")
	}
	if len(want) != len(got) {
		t.Fatalf("cell counts differ: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if want[i].at != got[i].at {
			t.Fatalf("cell %d: time %v vs %v", i, want[i].at, got[i].at)
		}
		if !bytes.Equal(want[i].wire[:], got[i].wire[:]) {
			t.Fatalf("cell %d: wire bytes differ at %v", i, want[i].at)
		}
	}
}

// driveFrames offers the same deterministic load in every variant: three
// frames of distinct sizes, back to back from t=0.
func driveFrames(t *testing.T, send func(vc atm.VC, data []byte) error, vc atm.VC) {
	t.Helper()
	for i, size := range []int{3000, 40, 9180} {
		payload := make([]byte, size)
		for j := range payload {
			payload[j] = byte(i*31 + j)
		}
		if err := send(vc, payload); err != nil {
			t.Fatal(err)
		}
	}
}

const (
	goldenDelay = sim.Duration(5000)
	goldenSeed  = uint64(9)
)

func goldenSwitchBuilt(t *testing.T, vc atm.VC) []arrival {
	n, err := NewNetwork(NetworkSpec{
		Endpoints: []EndpointSpec{{Name: "a"}, {Name: "b"}},
		Switches:  []SwitchSpec{{Name: "sw", Ports: 2, Rate: units.STS3cPayload, QueueDepth: 64}},
		Links: []LinkSpec{
			{Name: "a-sw", A: NodeRef{Node: "a"}, B: NodeRef{Node: "sw", Port: 0},
				Delay: goldenDelay, Seed: goldenSeed},
			{Name: "sw-b", A: NodeRef{Node: "sw", Port: 1}, B: NodeRef{Node: "b"},
				Seed: goldenSeed + 1},
		},
		VCCs: []VCCSpec{{Name: "ab", From: "a", To: "b", VC: vc}},
	})
	if err != nil {
		t.Fatal(err)
	}
	vcc := n.VCC("ab")
	if vcc.SourceVC != vc || vcc.DestVC != vc {
		t.Fatalf("VC allocation moved: %v → %v", vcc.SourceVC, vcc.DestVC)
	}
	var got []arrival
	n.Link("sw-b").Fwd.AttachSink(tapInto(t, &got, n.Kernel(), n.Endpoint("b").Interface()))
	driveFrames(t, func(vc atm.VC, data []byte) error { return n.Endpoint("a").Send(vc, data, nil) }, vc)
	n.Run()
	return got
}

// The builder may not depend on any scheduling property specific to the
// timing wheel: the heap kernel must produce the same cells at the same times.
func TestGoldenOneSwitchHeapKernel(t *testing.T) {
	vc := atm.VC{VCI: 100}
	wheel := goldenSwitchBuilt(t, vc)
	newKernel = sim.NewHeapKernel
	defer func() { newKernel = sim.NewKernel }()
	heap := goldenSwitchBuilt(t, vc)
	compareArrivals(t, wheel, heap)
}
