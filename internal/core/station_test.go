package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// stationPair builds endpoints a and b joined by one fiber with the given
// delay, cell loss and seed, with a duplex connection on each of vcs.
func stationPair(t *testing.T, delay sim.Duration, loss float64, seed uint64, vcs ...VC) *Network {
	t.Helper()
	spec := NetworkSpec{
		Endpoints: []EndpointSpec{{Name: "a"}, {Name: "b"}},
		Links: []LinkSpec{{Name: "ab", A: NodeRef{Node: "a"}, B: NodeRef{Node: "b"},
			Delay: delay, LossProb: loss, Seed: seed}},
	}
	for _, vc := range vcs {
		spec.VCCs = append(spec.VCCs, VCCSpec{Name: fmt.Sprint(vc), From: "a", To: "b", VC: vc, Duplex: true})
	}
	net, err := NewNetwork(spec)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestStationPairEndToEnd(t *testing.T) {
	vc := VC{VCI: 5}
	net := stationPair(t, 5000, 0, 1, vc)
	payload := bytes.Repeat([]byte{0xab}, 3000)
	var got []byte
	net.Endpoint("b").OnReceive(func(p Packet) { got = p.Data })
	if err := net.Endpoint("a").Send(vc, payload, nil); err != nil {
		t.Fatal(err)
	}
	net.Run()
	if !bytes.Equal(got, payload) {
		t.Fatal("station pair round trip failed")
	}
}

func TestDuplexLinksIndependent(t *testing.T) {
	vc := VC{VCI: 9}
	net := stationPair(t, 1000, 0, 2, vc)
	a, b := net.Endpoint("a"), net.Endpoint("b")
	var atA, atB int
	a.OnReceive(func(Packet) { atA++ })
	b.OnReceive(func(Packet) { atB++ })
	a.Send(vc, []byte{1, 2, 3}, nil)
	b.Send(vc, []byte{4, 5, 6}, nil)
	net.Run()
	if atA != 1 || atB != 1 {
		t.Fatalf("deliveries a=%d b=%d, want 1/1", atA, atB)
	}
}

func TestSourceClosedLoop(t *testing.T) {
	vc := VC{VCI: 1}
	net := stationPair(t, 1000, 0, 3, vc)
	deadline := sim.Time(5 * sim.Millisecond)
	src := netsim.NewSource(net.Kernel(), net.Endpoint("a").Station(), vc, 9180, deadline)
	src.Start(4)
	net.RunUntil(deadline + sim.Time(5*sim.Millisecond))
	if src.Sent < 4 {
		t.Fatalf("source sent %d", src.Sent)
	}
	if net.Endpoint("b").Stats().Rx.Packets == 0 {
		t.Fatal("nothing delivered")
	}
}

// Property: under random sizes, random VC assignment and random loss, the
// receiver delivers a prefix-correct per-VC subsequence of what was sent:
// nothing corrupted, nothing reordered, nothing invented.
func TestPropertyEndToEndIntegrity(t *testing.T) {
	run := func(seed uint64, sizes []uint16, lossMilli uint8) bool {
		vcs := []VC{{VCI: 1}, {VCI: 2}, {VCI: 3}}
		loss := float64(lossMilli%20) / 1000
		net := stationPair(t, 5000, loss, seed, vcs...)
		type msg struct {
			vc  VC
			sdu []byte
		}
		var sent []msg
		var recv []msg
		net.Endpoint("b").OnReceive(func(p Packet) {
			recv = append(recv, msg{p.VC, p.Data})
		})
		for i, s := range sizes {
			n := int(s)%5000 + 1
			payload := make([]byte, n)
			for j := range payload {
				payload[j] = byte(j*7 + i)
			}
			vc := vcs[i%len(vcs)]
			sent = append(sent, msg{vc, payload})
			if err := net.Endpoint("a").Send(vc, payload, nil); err != nil {
				return false
			}
		}
		net.Run()
		// Per VC: received messages are a subsequence (in fact a
		// loss-filtered subsequence preserving order) of sent ones.
		for _, vc := range vcs {
			var s, r [][]byte
			for _, m := range sent {
				if m.vc == vc {
					s = append(s, m.sdu)
				}
			}
			for _, m := range recv {
				if m.vc == vc {
					r = append(r, m.sdu)
				}
			}
			si := 0
			for _, got := range r {
				found := false
				for si < len(s) {
					if bytes.Equal(s[si], got) {
						found = true
						si++
						break
					}
					si++
				}
				if !found {
					return false
				}
			}
		}
		if loss == 0 && len(recv) != len(sent) {
			return false
		}
		return true
	}
	for _, seed := range []uint64{1, 2, 3} {
		sizes := make([]uint16, 12)
		rng := sim.NewRand(seed * 77)
		for i := range sizes {
			sizes[i] = uint16(rng.Uint64())
		}
		if !run(seed, sizes, uint8(seed*7)) {
			t.Fatalf("integrity violated for seed %d", seed)
		}
	}
}
