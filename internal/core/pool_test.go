package core

import (
	"testing"

	"repro/internal/atm"
	"repro/internal/sim"
	"repro/internal/tm"
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
		NewSource(v.Source, v.SourceVC, 9180, runTime).Start(4)
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

// TestPoolLedgerBalances drains networks that exercise every way a cell
// leaves the datapath — delivery, switch discards, policing, fiber loss
// and corruption, OAM cells made and consumed mid-path, ABR RM cells,
// SONET line errors, multi-engine reassembly and the per-cell host-SAR's
// FIFO overflow and software reassembly — and checks the serial
// pool ledger: once nothing is in flight, every cell the kernel's pool
// handed out has come back, and no cell came back that the pool never
// handed out.
func TestPoolLedgerBalances(t *testing.T) {
	const runTime = 4 * sim.Millisecond
	three := func(depth int) NetworkSpec {
		return NetworkSpec{
			Endpoints: []EndpointSpec{{Name: "a"}, {Name: "b"}, {Name: "c"}},
			Switches:  []SwitchSpec{{Name: "sw", Ports: 3, QueueDepth: depth}},
			Links: []LinkSpec{
				// Unequal fibers break the senders' cell-clock phase lock.
				{Name: "a-sw", A: NodeRef{Node: "a"}, B: NodeRef{Node: "sw", Port: 0}, Delay: 10_000, Seed: 1},
				{Name: "b-sw", A: NodeRef{Node: "b"}, B: NodeRef{Node: "sw", Port: 1}, Delay: 17_000, Seed: 2},
				{Name: "sw-c", A: NodeRef{Node: "sw", Port: 2}, B: NodeRef{Node: "c"}, Delay: 10_000, Seed: 3},
			},
			VCCs: []VCCSpec{
				{Name: "ac", From: "a", To: "c", VC: atm.VC{VCI: 40}},
				{Name: "bc", From: "b", To: "c", VC: atm.VC{VCI: 41}},
			},
		}
	}
	direct := func(ls LinkSpec, opts Options, vccs ...VCCSpec) NetworkSpec {
		ls.Name, ls.A, ls.B = "ab", NodeRef{Node: "a"}, NodeRef{Node: "b"}
		return NetworkSpec{
			Endpoints: []EndpointSpec{{Name: "a", Options: opts}, {Name: "b", Options: opts}},
			Links:     []LinkSpec{ls},
			VCCs:      vccs,
		}
	}
	greedy := func(net *Network, vcc string, size int) {
		v := net.VCC(vcc)
		NewSource(v.Source, v.SourceVC, size, sim.Time(runTime)).Start(4)
	}
	nonzero := func(t *testing.T, what string, v uint64) {
		t.Helper()
		if v == 0 {
			t.Errorf("%s = 0: the path under test never ran", what)
		}
	}
	var pingReplies uint64
	faultOpts := Options{ReassemblyTimeout: 500 * sim.Microsecond,
		AlarmPeriod: 100 * sim.Microsecond, AlarmClearTimeout: 300 * sim.Microsecond}
	cases := []struct {
		name  string
		spec  NetworkSpec
		drive func(t *testing.T, net *Network)
		check func(t *testing.T, net *Network)
	}{
		{"tail drop", three(16),
			func(t *testing.T, net *Network) { greedy(net, "ac", 9180); greedy(net, "bc", 1000) },
			func(t *testing.T, net *Network) { nonzero(t, "switch drops", net.Switch("sw").Stats().Dropped) }},
		{"epd and ppd", three(64),
			func(t *testing.T, net *Network) {
				net.Switch("sw").SetThresholds(2, 0, 40, 0)
				greedy(net, "ac", 9180)
				greedy(net, "bc", 9180)
			},
			func(t *testing.T, net *Network) {
				st := net.Switch("sw").Stats()
				nonzero(t, "EPD cells", st.EPDCells)
				nonzero(t, "PPD cells", st.PPDCells)
			}},
		{"upc policer", three(64),
			func(t *testing.T, net *Network) {
				pol := tm.NewPolicer(tm.VBRContract(20000, 10000, 50, 0))
				pol.TagSCR = true
				net.Switch("sw").SetPolicer(0, net.VCC("ac").Hops[0].InVC, pol)
				greedy(net, "ac", 9180)
			},
			func(t *testing.T, net *Network) {
				st := net.Switch("sw").Stats()
				nonzero(t, "policed discards", st.PolicedDiscarded)
				nonzero(t, "policed tags", st.PolicedTagged)
			}},
		{"fiber loss and corruption",
			direct(LinkSpec{Delay: 10_000, LossProb: 2e-3, CorruptProb: 2e-3, Seed: 5}, Options{},
				VCCSpec{Name: "ab", From: "a", To: "b"}),
			func(t *testing.T, net *Network) { greedy(net, "ab", 9180) },
			func(t *testing.T, net *Network) {
				st := net.Link("ab").Fwd.Stats()
				nonzero(t, "cells lost", st.Lost)
				nonzero(t, "cells corrupted", st.Corrupted)
			}},
		{"fiber cut with ais and a ping",
			NetworkSpec{
				Endpoints: []EndpointSpec{{Name: "a", Options: faultOpts}, {Name: "b", Options: faultOpts}},
				Switches: []SwitchSpec{
					{Name: "sw1", Ports: 2, AISPeriod: 100 * sim.Microsecond},
					{Name: "sw2", Ports: 2, AISPeriod: 100 * sim.Microsecond},
				},
				Links: []LinkSpec{
					{Name: "a-sw1", A: NodeRef{Node: "a"}, B: NodeRef{Node: "sw1", Port: 0}, Delay: 10_000},
					{Name: "mid", A: NodeRef{Node: "sw1", Port: 1}, B: NodeRef{Node: "sw2", Port: 0}, DistanceKm: 10},
					{Name: "sw2-b", A: NodeRef{Node: "sw2", Port: 1}, B: NodeRef{Node: "b"}, Delay: 10_000},
				},
				VCCs: []VCCSpec{{Name: "ab", From: "a", To: "b", Duplex: true}},
			},
			func(t *testing.T, net *Network) {
				greedy(net, "ab", 9180)
				k, mid, v := net.Kernel(), net.Link("mid").Fwd, net.VCC("ab")
				net.Endpoint("a").Interface().OnLoopbackReply(func(VC, uint32) { pingReplies++ })
				k.At(sim.Time(runTime/4), mid.Fail)
				k.At(sim.Time(runTime/2), mid.Restore)
				// Ping once the source's deadline has passed, while its
				// last frames still drain: the greedy load keeps the TX
				// FIFO too full for a management cell until then.
				k.At(sim.Time(runTime+sim.Millisecond), func() {
					if err := net.Endpoint("a").Interface().SendLoopback(v.SourceVC, 0xfeed); err != nil {
						t.Error(err)
					}
				})
			},
			func(t *testing.T, net *Network) {
				nonzero(t, "AIS cells", net.Switch("sw2").Stats().AISCells)
				nonzero(t, "ping replies", pingReplies)
			}},
		{"abr with erica and efci", abrBottleneckSpec(),
			func(t *testing.T, net *Network) {
				net.Switch("sw").SetPortRate(1, Rate155)
				greedy(net, "flow", 9180)
			},
			func(t *testing.T, net *Network) {
				nonzero(t, "ER stamps", net.Switch("sw").Stats().ERStamped)
				nonzero(t, "RM turnarounds", net.Metrics().Counter("b.nic.abr.turnaround").Value())
			}},
		{"framed pair with bit errors",
			direct(LinkSpec{Delay: 10_000, Framed: true, BitErrProb: 0.2, Seed: 6}, Options{},
				VCCSpec{Name: "ab", From: "a", To: "b"}),
			func(t *testing.T, net *Network) { greedy(net, "ab", 9180) },
			func(t *testing.T, net *Network) {
				st := net.Link("ab").Framed.AtoB.Stats()
				nonzero(t, "line errors seen", st.FrameErrors+st.HeaderDiscards+
					st.Delineation.HeaderCorrected+st.Delineation.HeaderDropped+
					net.Endpoint("b").Stats().Rx.AALErrors)
			}},
		{"aal3/4 on three receive engines",
			direct(LinkSpec{Delay: 10_000}, Options{AAL34: true, RxEngines: 3},
				VCCSpec{Name: "v1", From: "a", To: "b", VC: atm.VC{VCI: 50}},
				VCCSpec{Name: "v2", From: "a", To: "b", VC: atm.VC{VCI: 51}},
				VCCSpec{Name: "v3", From: "a", To: "b", VC: atm.VC{VCI: 52}}),
			func(t *testing.T, net *Network) {
				for _, v := range []string{"v1", "v2", "v3"} {
					greedy(net, v, 4000)
				}
			},
			func(t *testing.T, net *Network) {
				nonzero(t, "packets delivered", net.Endpoint("b").Stats().Rx.Packets)
			}},
		{"nic sender overruns a per-cell receiver",
			archPair(Programmable, PerCell, LinkSpec{Delay: 10_000}),
			func(t *testing.T, net *Network) { greedy(net, "ab", 1024) },
			func(t *testing.T, net *Network) {
				nonzero(t, "per-cell rx fifo drops", net.Endpoint("b").Stats().Rx.FifoDrops)
			}},
		{"per-cell pair with fiber loss",
			archPair(PerCell, PerCell, LinkSpec{Delay: 10_000, LossProb: 2e-2, Seed: 8}),
			func(t *testing.T, net *Network) { greedy(net, "ab", 1000) },
			func(t *testing.T, net *Network) {
				nonzero(t, "cells lost", net.Link("ab").Fwd.Stats().Lost)
				nonzero(t, "per-cell aal errors", net.Endpoint("b").Stats().Rx.AALErrors)
				nonzero(t, "per-cell packets delivered", net.Endpoint("b").Stats().Rx.Packets)
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net, err := NewNetwork(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			tc.drive(t, net)
			net.Run()
			gets, puts, _ := net.worlds[0].pool.Stats()
			if gets != puts {
				t.Errorf("drained run: pool handed out %d cells and got %d back", gets, puts)
			}
			tc.check(t, net)
		})
	}
}
