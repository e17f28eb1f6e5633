package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// archPair declares endpoints a and b with the given adapters, joined by
// fiber "ab" and carrying VCC "ab" from a to b on VCI 3.
func archPair(archA, archB Arch, link LinkSpec) NetworkSpec {
	link.Name, link.A, link.B = "ab", NodeRef{Node: "a"}, NodeRef{Node: "b"}
	return NetworkSpec{
		Endpoints: []EndpointSpec{{Name: "a", Options: Options{Arch: archA}}, {Name: "b", Options: Options{Arch: archB}}},
		Links:     []LinkSpec{link},
		VCCs:      []VCCSpec{{Name: "ab", From: "a", To: "b", VC: VC{VCI: 3}}},
	}
}

func buildSpec(t *testing.T, spec NetworkSpec) *Network {
	t.Helper()
	net, err := NewNetwork(spec)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// A spec-built per-cell pair carries an SDU intact, segmented and
// reassembled by the hosts at both ends. Each end's programmed I/O lands on
// its own bus device, "<name>.pio", so the two keep separate counters on
// the network's one registry.
func TestPerCellPairDelivers(t *testing.T) {
	net := buildSpec(t, archPair(PerCell, PerCell, LinkSpec{Delay: 1000, Seed: 4}))
	var got []byte
	net.Endpoint("b").OnReceive(func(p Packet) { got = bytes.Clone(p.Data) })
	payload := bytes.Repeat([]byte{9}, 800)
	if err := net.Endpoint("a").Send(net.VCC("ab").SourceVC, payload, nil); err != nil {
		t.Fatal(err)
	}
	net.Run()
	if !bytes.Equal(got, payload) {
		t.Fatalf("delivered %d bytes, want the 800-byte SDU", len(got))
	}
	const cells = 17 // 800 bytes and the 8-byte AAL5 trailer
	tx, rx := net.Endpoint("a").Stats().Tx, net.Endpoint("b").Stats().Rx
	if tx.Packets != 1 || tx.Cells != cells || rx.Cells != cells || rx.Packets != 1 || rx.Bytes != 800 {
		t.Fatalf("tx %+v, rx %+v: want one %d-cell frame each way", tx, rx, cells)
	}
	const words = cells * 14 // 14 PIO words a cell, out of a and into b
	reg := net.Metrics()
	for _, ep := range []string{"a", "b"} {
		if got := reg.Counter("bus." + ep + ".pio.pio_words").Value(); got != words {
			t.Errorf("bus.%s.pio.pio_words = %d, want %d", ep, got, words)
		}
	}
}

// The host-SAR has no firmware and no VC table beyond what the host opened:
// a cell on a VC it never opened counts under Rx.UnknownVC and an OAM cell
// under Rx.BadOAM, and neither vanishes.
func TestPerCellCountsDiscards(t *testing.T) {
	net := buildSpec(t, archPair(Programmable, PerCell, LinkSpec{Delay: 1000}))
	a := net.Endpoint("a")
	stray := VC{VCI: 200}
	if err := a.Interface().OpenVC(stray); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(stray, make([]byte, 1000), nil); err != nil { // 21 cells
		t.Fatal(err)
	}
	if err := a.Interface().SendLoopback(net.VCC("ab").SourceVC, 7); err != nil {
		t.Fatal(err)
	}
	net.Run()
	rx := net.Endpoint("b").Stats().Rx
	if rx.Cells != 22 || rx.UnknownVC != 21 || rx.BadOAM != 1 || rx.FifoDrops != 0 {
		t.Fatalf("rx %+v: want 22 cells, 21 on the unopened VC and 1 OAM", rx)
	}
}

// A per-cell endpoint has no programmable interface: the methods that need
// one return an error, and the accessors return nil.
func TestPerCellEndpointHasNoInterface(t *testing.T) {
	net := buildSpec(t, archPair(PerCell, PerCell, LinkSpec{Delay: 1000}))
	b, vc := net.Endpoint("b"), net.VCC("ab").DestVC
	if b.Interface() != nil {
		t.Fatal("per-cell endpoint returned an interface")
	}
	if err := b.SetPeakCellRate(vc, 1000); err == nil || !strings.Contains(err.Error(), `endpoint "b" is per-cell`) {
		t.Errorf("SetPeakCellRate: err = %v, want the per-cell refusal", err)
	}
}

// TestParallelGoldenPerCellPair runs the per-cell pair over a lossy fiber,
// SDUs both ways, with each endpoint in its own shard: deliveries, merged
// metrics and the trace match the serial build byte for byte.
func TestParallelGoldenPerCellPair(t *testing.T) {
	mk := func() NetworkSpec {
		spec := archPair(PerCell, PerCell, LinkSpec{Delay: 10_000, Seed: 9, LossProb: 0.02})
		spec.VCCs = append(spec.VCCs, VCCSpec{Name: "ba", From: "b", To: "a", VC: VC{VCI: 4}})
		return spec
	}
	sizes := []int{1, 44, 45, 89, 512, 1000, 40, 2000}
	drive := func(net *Network, col *collector) {
		col.watch(net, "a")
		col.watch(net, "b")
		for i, size := range sizes {
			data := make([]byte, size)
			for j := range data {
				data[j] = byte(i + j)
			}
			for _, v := range []string{"ab", "ba"} {
				vcc := net.VCC(v)
				if err := vcc.Source.Send(vcc.SourceVC, data, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	serial := goldenRun(t, mk, 0, drive)
	if len(serial.deliveries) == 0 || !strings.Contains(serial.metrics, "bus.b.pio.pio_words") {
		t.Fatalf("serial run delivered %d SDUs; metrics:\n%s", len(serial.deliveries), serial.metrics)
	}
	run := goldenRun(t, mk, 2, drive)
	if run.shards != 2 {
		t.Fatalf("built %d partitions, want 2", run.shards)
	}
	requireRunsIdentical(t, fmt.Sprintf("per-cell pair shards=%d", run.shards), serial, run)
}
