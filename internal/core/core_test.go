package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/atm"
	"repro/internal/sim"
	"repro/internal/tm"
	"repro/internal/units"
)

func TestTestbedQuickPath(t *testing.T) {
	vc := VC{VCI: 32}
	net := pair(t, Options{}, LinkSpec{}, vc)
	var got []Packet
	net.Endpoint("b").OnReceive(func(p Packet) {
		p.Data = bytes.Clone(p.Data)
		got = append(got, p)
	})
	msg := []byte("hello, 1991")
	if err := net.Endpoint("a").Send(vc, msg, nil); err != nil {
		t.Fatal(err)
	}
	net.Run()
	if len(got) != 1 || !bytes.Equal(got[0].Data, msg) {
		t.Fatalf("got %v", got)
	}
	if got[0].VC != vc {
		t.Fatalf("VC %v", got[0].VC)
	}
	if got[0].At <= 0 {
		t.Fatal("delivery timestamp missing")
	}
}

func TestTestbedBothDirections(t *testing.T) {
	vc := VC{VCI: 1}
	net := pair(t, Options{}, LinkSpec{}, vc)
	a, b := net.Endpoint("a"), net.Endpoint("b")
	a2b, b2a := 0, 0
	a.OnReceive(func(Packet) { b2a++ })
	b.OnReceive(func(Packet) { a2b++ })
	a.Send(vc, []byte{1}, nil)
	b.Send(vc, []byte{2}, nil)
	net.Run()
	if a2b != 1 || b2a != 1 {
		t.Fatalf("a2b=%d b2a=%d", a2b, b2a)
	}
}

func TestOptionsPlumbing(t *testing.T) {
	net := pair(t, Options{
		Rate:        Rate622,
		AAL34:       true,
		EngineMHz:   66,
		TxFifoCells: 64,
		RxFifoCells: 128,
		AdapterSRAM: 1 << 20,
		HostMIPS:    200,
	}, LinkSpec{DistanceKm: 10})
	a := net.Endpoint("a")
	cfg := a.Interface().Config()
	if cfg.PayloadRate != units.STS12cPayload {
		t.Errorf("rate = %v", cfg.PayloadRate)
	}
	if cfg.AAL.String() != "AAL3/4" {
		t.Errorf("aal = %v", cfg.AAL)
	}
	if cfg.Engine.ClockHz != 66_000_000 {
		t.Errorf("clock = %d", cfg.Engine.ClockHz)
	}
	if cfg.TxFifoDepth != 64 || cfg.RxFifoDepth != 128 {
		t.Errorf("fifos = %d/%d", cfg.TxFifoDepth, cfg.RxFifoDepth)
	}
	if cfg.AdapterSRAM != 1<<20 {
		t.Errorf("sram = %d", cfg.AdapterSRAM)
	}
	if got := a.Host().InstrTime(1000); got != 5000 {
		t.Errorf("1000 host instructions take %v, want 5 µs at 200 MIPS", got)
	}
	def := pair(t, Options{}, LinkSpec{})
	if got := def.Endpoint("a").Host().InstrTime(1000); got != 40_000 {
		t.Errorf("1000 host instructions take %v by default, want 40 µs at 25 MIPS", got)
	}
}

func TestLinkLossOption(t *testing.T) {
	vc := VC{VCI: 2}
	net := pair(t, Options{}, LinkSpec{LossProb: 0.05, Seed: 4}, vc)
	delivered := 0
	net.Endpoint("b").OnReceive(func(Packet) { delivered++ })
	payload := make([]byte, 4000)
	for i := 0; i < 30; i++ {
		net.Endpoint("a").Send(vc, payload, nil)
	}
	net.Run()
	st := net.Endpoint("b").Stats()
	if st.Rx.AALErrors == 0 {
		t.Fatal("5% loss produced no AAL errors")
	}
	if delivered >= 30 {
		t.Fatal("all frames survived 5% cell loss on ~84-cell frames")
	}
}

func TestHardwiredOption(t *testing.T) {
	vc := VC{VCI: 4}
	net := pair(t, Options{Arch: Hardwired}, LinkSpec{}, vc)
	a := net.Endpoint("a")
	if a.Interface().Config().Engine.ClockHz != 1_000_000_000 {
		t.Fatal("hardwired option did not replace engines")
	}
	ok := false
	net.Endpoint("b").OnReceive(func(Packet) { ok = true })
	a.Send(vc, []byte{1, 2}, nil)
	net.Run()
	if !ok {
		t.Fatal("hardwired pair did not deliver")
	}
}

func TestGoodputAccessor(t *testing.T) {
	vc := VC{VCI: 5}
	net := pair(t, Options{}, LinkSpec{}, vc)
	b := net.Endpoint("b")
	b.OnReceive(func(Packet) {})
	net.Endpoint("a").Send(vc, make([]byte, 9180), nil)
	net.Run()
	if g := b.Goodput(); g <= 0 {
		t.Fatalf("goodput = %v", g)
	}
}

func TestRunFor(t *testing.T) {
	net := pair(t, Options{}, LinkSpec{})
	if now := net.RunFor(5 * sim.Millisecond); now != 5*sim.Millisecond {
		t.Fatalf("RunFor returned %v", now)
	}
	if now := net.Kernel().Now(); now != 5*sim.Millisecond {
		t.Fatalf("kernel clock at %v", now)
	}
}

func TestPingLoopback(t *testing.T) {
	vc := VC{VCI: 6}
	net := pair(t, Options{}, LinkSpec{}, vc)
	a := net.Endpoint("a")
	var got uint32
	a.Interface().OnLoopbackReply(func(v VC, corr uint32) { got = corr })
	if err := a.Interface().SendLoopback(vc, 0xfeed); err != nil {
		t.Fatal(err)
	}
	net.Run()
	if got != 0xfeed {
		t.Fatalf("ping reply correlation %#x", got)
	}
}

func TestPacingViaCore(t *testing.T) {
	vc := VC{VCI: 6}
	net := pair(t, Options{}, LinkSpec{}, vc)
	a := net.Endpoint("a")
	if err := a.SetPeakCellRate(vc, 10_000); err != nil {
		t.Fatal(err)
	}
	done := sim.Time(0)
	net.Endpoint("b").OnReceive(func(p Packet) { done = p.At })
	a.Send(vc, make([]byte, 480), nil) // 11 cells at 100 µs spacing
	net.Run()
	if done < sim.Time(10*100_000) {
		t.Fatalf("paced delivery at %v, expected >= 1 ms", done)
	}
}

func TestMultiEngineOptionViaCore(t *testing.T) {
	net := pair(t, Options{RxEngines: 4, InterleaveVCs: true}, LinkSpec{})
	a := net.Endpoint("a").Interface()
	if got := len(a.RxEngines()); got != 4 {
		t.Fatalf("engines = %d", got)
	}
	if !a.Config().InterleaveVCs {
		t.Fatal("interleave not plumbed")
	}
}

// TestAddVCCFailureLeavesNetworkUnchanged pins AddVCC's promise that a
// failed call leaves the network as it found it: no VC end stays open, no
// switch route stays installed and no VCI stays claimed, so the next
// connection can use all three.
func TestAddVCCFailureLeavesNetworkUnchanged(t *testing.T) {
	// One switch joins a, c, b and d on ports 0..3.
	star := func(t *testing.T) *Network {
		spec := NetworkSpec{Switches: []SwitchSpec{{Name: "sw", Ports: 4}}}
		for i, name := range []string{"a", "c", "b", "d"} {
			spec.Endpoints = append(spec.Endpoints, EndpointSpec{Name: name})
			spec.Links = append(spec.Links, LinkSpec{Name: name + "-sw",
				A: NodeRef{Node: name}, B: NodeRef{Node: "sw", Port: i}, Delay: 1000})
		}
		net, err := NewNetwork(spec)
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	t.Run("destination VC table full", func(t *testing.T) {
		net := star(t)
		for i := 0; i < 256; i++ { // b's VC table holds 256 entries
			if _, err := net.AddVCC(VCCSpec{Name: fmt.Sprintf("cb%d", i), From: "c", To: "b"}); err != nil {
				t.Fatalf("filling b's VC table, vcc %d: %v", i, err)
			}
		}
		if _, err := net.AddVCC(VCCSpec{Name: "ab", From: "a", To: "b"}); err == nil || !strings.Contains(err.Error(), `at "b"`) {
			t.Fatalf("a→b into b's full table: err = %v, want an open failure at b", err)
		}
		sw := net.Switch("sw")
		sw.Port(0).DeliverCell(&atm.Cell{Header: atm.Header{VCI: 100}})
		if got := sw.Stats().NoRoute; got != 1 {
			t.Fatalf("a cell on the failed VCC's first-hop VC found a route (no-route count %d)", got)
		}
		v, err := net.AddVCC(VCCSpec{Name: "ad", From: "a", To: "d"})
		if err != nil {
			t.Fatalf("a→d after the failed a→b: %v", err)
		}
		if v.SourceVC.VCI != 100 {
			t.Fatalf("a→d opened VCI %d at a, want 100", v.SourceVC.VCI)
		}
	})
	t.Run("later hop out of VCIs", func(t *testing.T) {
		net := star(t)
		top := VC{VCI: ^uint16(0)}
		if _, err := net.AddVCC(VCCSpec{Name: "cb", From: "c", To: "b", VC: top}); err != nil {
			t.Fatal(err)
		}
		// a→b claims the top VCI on a-sw, then finds none free on sw-b.
		if _, err := net.AddVCC(VCCSpec{Name: "ab", From: "a", To: "b", VC: top}); err == nil || !strings.Contains(err.Error(), "exhausted") {
			t.Fatalf("a→b: err = %v, want VCI space exhausted", err)
		}
		v, err := net.AddVCC(VCCSpec{Name: "ad", From: "a", To: "d", VC: top})
		if err != nil {
			t.Fatalf("a→d after the failed a→b: %v", err)
		}
		if v.SourceVC != top {
			t.Fatalf("a→d opened %v at a, want %v", v.SourceVC, top)
		}
	})
}

// TestVCCRefusesVPIBeyondUNI pins that an endpoint VC whose VPI no UNI
// header can carry is refused when the VCC is added, on a framed link as on
// a cell link, and that the refusal leaves no VC claimed. Such a VCC used to
// build: on a framed link the first cell then panicked in the framer's
// header encode, and on a cell link the header went out unencodable.
func TestVCCRefusesVPIBeyondUNI(t *testing.T) {
	for _, framed := range []bool{true, false} {
		t.Run(fmt.Sprintf("framed=%v", framed), func(t *testing.T) {
			spec := NetworkSpec{
				Endpoints: []EndpointSpec{{Name: "a"}, {Name: "b"}},
				Links: []LinkSpec{{Name: "ab", A: NodeRef{Node: "a"}, B: NodeRef{Node: "b"},
					Delay: 10_000, Framed: framed}},
			}
			wide := VCCSpec{Name: "flow", From: "a", To: "b", VC: VC{VPI: 300, VCI: 100}}
			withVCC := spec
			withVCC.VCCs = []VCCSpec{wide}
			if _, err := NewNetwork(withVCC); !errors.Is(err, atm.ErrVPIRange) {
				t.Fatalf("NewNetwork: err = %v, want atm.ErrVPIRange", err)
			}
			net, err := NewNetwork(spec)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := net.AddVCC(wide); !errors.Is(err, atm.ErrVPIRange) {
				t.Fatalf("AddVCC: err = %v, want atm.ErrVPIRange", err)
			}
			if n := len(net.Link("ab").usedVCs); n != 0 {
				t.Fatalf("refused VCC left %d VCs claimed on the link", n)
			}
			v, err := net.AddVCC(VCCSpec{Name: "flow", From: "a", To: "b", VC: VC{VPI: 255, VCI: 100}})
			if err != nil {
				t.Fatalf("VPI 255 after the refusal: %v", err)
			}
			var got int
			net.Endpoint("b").OnReceive(func(Packet) { got++ })
			if err := net.Endpoint("a").Send(v.SourceVC, make([]byte, 1000), nil); err != nil {
				t.Fatal(err)
			}
			net.RunFor(2 * sim.Millisecond)
			if got != 1 {
				t.Fatalf("delivered %d SDUs on VPI 255, want 1", got)
			}
		})
	}
}

// A switch or link value the model cannot run is a build error naming the
// entry, whether it would have panicked during the build, on the first
// cell, or when partitioning took a negative delay for lookahead. So is a
// spec that needs the programmable interface at a per-cell endpoint, which
// would otherwise dereference its nil interface.
func TestSpecGeometryErrors(t *testing.T) {
	viaSwitch := func() NetworkSpec {
		return NetworkSpec{
			Endpoints: []EndpointSpec{{Name: "a"}, {Name: "b"}},
			Switches:  []SwitchSpec{{Name: "sw", Ports: 2}},
			Links: []LinkSpec{
				{Name: "a-sw", A: NodeRef{Node: "a"}, B: NodeRef{Node: "sw", Port: 0}, Delay: 10_000},
				{Name: "sw-b", A: NodeRef{Node: "sw", Port: 1}, B: NodeRef{Node: "b"}, Delay: 10_000},
			},
			VCCs: []VCCSpec{{Name: "ab", From: "a", To: "b"}},
		}
	}
	framed := func() NetworkSpec {
		return NetworkSpec{
			Endpoints: []EndpointSpec{{Name: "a"}, {Name: "b"}},
			Links: []LinkSpec{{Name: "ab", A: NodeRef{Node: "a"}, B: NodeRef{Node: "b"},
				Delay: 10_000, Framed: true}},
			VCCs: []VCCSpec{{Name: "ab", From: "a", To: "b"}},
		}
	}
	for _, tc := range []struct {
		name, want string
		spec       func() NetworkSpec
		edit       func(*NetworkSpec)
	}{
		{"zero ports", `switch "sw"`, viaSwitch, func(s *NetworkSpec) { s.Switches[0].Ports = 0 }},
		{"negative ports", `switch "sw"`, viaSwitch, func(s *NetworkSpec) { s.Switches[0].Ports = -2 }},
		{"negative queue depth", `switch "sw"`, viaSwitch, func(s *NetworkSpec) { s.Switches[0].QueueDepth = -1 }},
		{"negative rate", `switch "sw"`, viaSwitch, func(s *NetworkSpec) { s.Switches[0].Rate = -Rate155 }},
		{"negative link delay", `link "sw-b"`, viaSwitch, func(s *NetworkSpec) { s.Links[1].Delay = -10 }},
		{"negative distance", `link "a-sw"`, viaSwitch, func(s *NetworkSpec) { s.Links[0].Delay, s.Links[0].DistanceKm = 0, -1 }},
		{"NaN distance", `link "a-sw"`, viaSwitch, func(s *NetworkSpec) { s.Links[0].Delay, s.Links[0].DistanceKm = 0, math.NaN() }},
		{"negative framed delay", `link "ab"`, framed, func(s *NetworkSpec) { s.Links[0].Delay = -10 }},
		{"negative delay on a cut", `link "a-sw"`, viaSwitch, func(s *NetworkSpec) {
			s.Links[0].Delay = -10
			s.Partitions = [][]string{{"a"}, {"sw", "b"}}
		}},
		{"negative delay with shards", `link "sw-b"`, viaSwitch, func(s *NetworkSpec) {
			s.Links[1].Delay = -10
			s.Shards = 3
		}},
		{"unknown arch", `endpoint "a"`, viaSwitch, func(s *NetworkSpec) { s.Endpoints[0].Options.Arch = PerCell + 1 }},
		{"framed link to a per-cell end", `framed link "ab"`, framed, func(s *NetworkSpec) { s.Endpoints[1].Options.Arch = PerCell }},
		{"shaped per-cell source", `vcc "ab"`, viaSwitch, func(s *NetworkSpec) {
			s.Endpoints[0].Options.Arch = PerCell
			s.VCCs[0].Contract, s.VCCs[0].Shape = tm.CBRContract(1000, 0), true
		}},
		{"abr from a per-cell source", `vcc "ab"`, viaSwitch, func(s *NetworkSpec) {
			s.Endpoints[0].Options.Arch = PerCell
			s.VCCs[0].Duplex, s.VCCs[0].ABR = true, &tm.ABRParams{PCR: 1000}
		}},
		{"abr into a per-cell destination", `vcc "ab"`, viaSwitch, func(s *NetworkSpec) {
			s.Endpoints[1].Options.Arch = PerCell
			s.VCCs[0].Duplex, s.VCCs[0].ABR = true, &tm.ABRParams{PCR: 1000}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := tc.spec()
			tc.edit(&spec)
			var err error
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("NewNetwork panicked: %v", p)
					}
				}()
				var net *Network
				if net, err = NewNetwork(spec); err == nil {
					// Built: push one SDU through, where a bad delay
					// panics.
					defer net.Close()
					if err := net.Endpoint("a").Send(net.VCC("ab").SourceVC, make([]byte, 100), nil); err != nil {
						t.Fatal(err)
					}
					net.Run()
				}
			}()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want an error naming %s", err, tc.want)
			}
		})
	}
}
