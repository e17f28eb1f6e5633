package core

import (
	"testing"

	"repro/internal/atm"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// poolNews runs an E19-shaped one-way network — two greedy senders on 5 ms
// fibers into one switch port with EPD — for runTime and reports the cell
// allocations every endpoint pool made, with the switch's EPD cell drops and
// the cells delivered.
func poolNews(t *testing.T, runTime sim.Duration) (news, epdCells, delivered uint64) {
	t.Helper()
	const hop = 5 * sim.Millisecond
	net, err := NewNetwork(NetworkSpec{
		Endpoints: []EndpointSpec{{Name: "a"}, {Name: "b"}, {Name: "c"}},
		Switches:  []SwitchSpec{{Name: "sw", Ports: 3, QueueDepth: 600}},
		Links: []LinkSpec{
			{Name: "a-sw", A: NodeRef{Node: "a"}, B: NodeRef{Node: "sw", Port: 0}, Delay: hop},
			{Name: "b-sw", A: NodeRef{Node: "b"}, B: NodeRef{Node: "sw", Port: 1}, Delay: hop},
			{Name: "sw-c", A: NodeRef{Node: "sw", Port: 2}, B: NodeRef{Node: "c"}, Delay: hop},
		},
		VCCs: []VCCSpec{
			{Name: "ac", From: "a", To: "c", VC: atm.VC{VCI: 40}},
			{Name: "bc", From: "b", To: "c", VC: atm.VC{VCI: 41}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Switch("sw").SetThresholds(2, 0, 300, 0)
	for _, name := range []string{"ac", "bc"} {
		v := net.VCC(name)
		netsim.NewSource(net.Kernel(), v.Source.Interface(), v.SourceVC, 9180, runTime).Start(4)
	}
	net.RunFor(runTime)
	seen := map[*atm.Pool]bool{}
	for _, name := range []string{"a", "b", "c"} {
		p := net.Endpoint(name).Interface().Pool()
		if !seen[p] {
			seen[p] = true
			_, _, n := p.Stats()
			news += n
		}
	}
	return news, net.Switch("sw").Stats().EPDCells, net.Endpoint("c").Stats().Rx.Cells
}

// Every cell a kernel's stations and switches discard or consume returns to
// the one pool they share, so the cells allocated are bounded by the cells
// ever in flight at once, not by how long the run is.
func TestCellPoolBoundedByRunLength(t *testing.T) {
	const T = 40 * sim.Millisecond
	news1, epd1, rx1 := poolNews(t, T)
	news2, epd2, rx2 := poolNews(t, 2*T)
	t.Logf("cells allocated: %d over T, %d over 2T; delivered %d → %d; EPD drops %d → %d", news1, news2, rx1, rx2, epd1, epd2)
	if epd2 <= epd1 || rx2 <= rx1 {
		t.Fatalf("doubling the run moved no traffic: EPD cells %d → %d, delivered %d → %d", epd1, epd2, rx1, rx2)
	}
	// The second T carries thousands more cells; allow a few cells of
	// extra peak occupancy, not one allocation per cell.
	if news2 > news1+64 {
		t.Fatalf("pool allocated %d cells over T and %d over 2T (%d more cells delivered, %d more EPD drops): allocations grow with run length",
			news1, news2, rx2-rx1, epd2-epd1)
	}
}
