package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/sim"
)

// pair builds the two-station network most tests here drive: endpoints a
// and b with the same options, joined by one fiber "ab" with link's delay,
// faults and seed (2 km when link sets neither Delay nor DistanceKm), with a
// duplex connection on each of vcs.
func pair(t *testing.T, opts Options, link LinkSpec, vcs ...VC) *Network {
	t.Helper()
	link.Name, link.A, link.B = "ab", NodeRef{Node: "a"}, NodeRef{Node: "b"}
	if link.Delay == 0 && link.DistanceKm == 0 {
		link.DistanceKm = 2
	}
	spec := NetworkSpec{
		Endpoints: []EndpointSpec{{Name: "a", Options: opts}, {Name: "b", Options: opts}},
		Links:     []LinkSpec{link},
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
	net := pair(t, Options{}, LinkSpec{Delay: 5000, Seed: 1}, vc)
	payload := bytes.Repeat([]byte{0xab}, 3000)
	var got []byte
	net.Endpoint("b").OnReceive(func(p Packet) { got = bytes.Clone(p.Data) })
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
	net := pair(t, Options{}, LinkSpec{Delay: 1000, Seed: 2}, vc)
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
	net := pair(t, Options{}, LinkSpec{Delay: 1000, Seed: 3}, vc)
	deadline := sim.Time(5 * sim.Millisecond)
	src := NewSource(net.Endpoint("a"), vc, 9180, deadline)
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
		net := pair(t, Options{}, LinkSpec{Delay: 5000, LossProb: loss, Seed: seed}, vcs...)
		type msg struct {
			vc  VC
			sdu []byte
		}
		var sent []msg
		var recv []msg
		net.Endpoint("b").OnReceive(func(p Packet) {
			recv = append(recv, msg{p.VC, bytes.Clone(p.Data)})
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

// Every adapter lends Packet.Data to the callback alone: a slice kept past
// its callback holds the next frame of its size class once that one is
// delivered.
func TestPacketDataIsLent(t *testing.T) {
	for _, arch := range []Arch{Programmable, Hardwired, PerCell} {
		vc := VC{VCI: 5}
		net := pair(t, Options{Arch: arch}, LinkSpec{}, vc)
		var kept [][]byte
		net.Endpoint("b").OnReceive(func(p Packet) { kept = append(kept, p.Data) })
		for _, b := range []byte{0x11, 0x22} {
			if err := net.Endpoint("a").Send(vc, bytes.Repeat([]byte{b}, 500), nil); err != nil {
				t.Fatal(err)
			}
			net.Run()
		}
		if len(kept) != 2 || !bytes.Equal(kept[0], kept[1]) || kept[1][0] != 0x22 {
			t.Errorf("Arch %d: the first delivery's buffer was not reused for the second", arch)
		}
	}
}

// After warm-up, one SDU from Send to delivery allocates nothing. The
// transmit copy, the descriptor records, the cells, the adapter's
// reassembly pages, the reassembler's result and the host's receive buffer,
// which is lent to the callback (nic.Delivered.SDU), all recycle. The ABR
// arm is the shape of the small-SDU ABR workload: an ABR connection through
// a switch port running ERICA into a slower line, with its RM cells.
func TestSendToDeliveryAllocatesNothing(t *testing.T) {
	direct := func(arch Arch) func(*testing.T) (*Network, VC) {
		return func(t *testing.T) (*Network, VC) {
			vc := VC{VCI: 5}
			return pair(t, Options{Arch: arch}, LinkSpec{}, vc), vc
		}
	}
	abr := func(t *testing.T) (*Network, VC) {
		net, err := NewNetwork(abrBottleneckSpec())
		if err != nil {
			t.Fatal(err)
		}
		net.Switch("sw").SetPortRate(1, Rate155)
		t.Cleanup(func() {
			reg := net.Metrics()
			if reg.Counter("b.nic.abr.turnaround").Value() == 0 || reg.Counter("sw.er_stamped").Value() == 0 {
				t.Error("the RM loop never ran: no turnaround or no explicit rate stamped")
			}
		})
		return net, net.VCC("flow").SourceVC
	}
	for _, arm := range []struct {
		name  string
		build func(*testing.T) (*Network, VC) // a sends to b on the VC
	}{
		{"programmable", direct(Programmable)},
		{"hardwired", direct(Hardwired)},
		{"abr_erica", abr},
	} {
		for _, size := range []int{40, 9180} {
			t.Run(fmt.Sprintf("%s/%d", arm.name, size), func(t *testing.T) {
				net, vc := arm.build(t)
				payload := bytes.Repeat([]byte{0x5a}, size)
				delivered := 0
				net.Endpoint("b").OnReceive(func(p Packet) {
					if !bytes.Equal(p.Data, payload) {
						t.Fatal("delivered payload differs from the one sent")
					}
					delivered++
				})
				exchange := func() {
					if err := net.Endpoint("a").Send(vc, payload, nil); err != nil {
						t.Fatal(err)
					}
					net.Run()
				}
				exchange()
				const runs = 50
				allocs := testing.AllocsPerRun(runs, exchange)
				if delivered != runs+2 { // the warm-up above and AllocsPerRun's own
					t.Fatalf("delivered %d SDUs, want %d", delivered, runs+2)
				}
				if allocs != 0 {
					t.Fatalf("%v allocations per %d-byte SDU, want 0", allocs, size)
				}
			})
		}
	}
}
