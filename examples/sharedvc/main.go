// Sharedvc: several stations share ONE virtual connection into a server —
// the SMDS/connectionless-service pattern AAL3/4's multiplexing identifier
// exists for. The senders' frames interleave cell-by-cell on the shared VC
// (watch the wire trace); the receiver's MID demultiplexer keeps them
// apart. This is the capability AAL5 traded away for its per-cell
// efficiency, and the reason AAL3/4 survived in the SMDS world.
//
//	go run ./examples/sharedvc
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro/internal/aal"
	"repro/internal/atm"
	"repro/internal/bus"
	"repro/internal/host"
	"repro/internal/netsim"
	"repro/internal/nic"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/tm"
	"repro/internal/trace"
	"repro/internal/units"
)

func main() {
	k := sim.NewKernel()
	pool := atm.NewPool(0) // one cell pool for everything on the kernel
	shared := atm.VC{VCI: 200}

	// Three access stations, AAL3/4 build, each with its own MID.
	mids := []uint16{101, 202, 303}
	var senders []*nic.Interface
	for i, mid := range mids {
		cfg := nic.DefaultConfig(fmt.Sprintf("s%d", i))
		cfg.AAL = aal.AAL34
		iface, err := nic.New(k, cfg, host.New(k, host.DefaultConfig()), bus.New(k, bus.DefaultConfig()), pool)
		if err != nil {
			log.Fatal(err)
		}
		iface.OpenVC(shared)
		if err := iface.SetMID(shared, mid); err != nil {
			log.Fatal(err)
		}
		senders = append(senders, iface)
	}

	// The server: MID-demultiplexing receiver.
	cfgRx := nic.DefaultConfig("server")
	cfgRx.AAL = aal.AAL34
	cfgRx.MIDMux = true
	server, err := nic.New(k, cfgRx, host.New(k, host.DefaultConfig()), bus.New(k, bus.DefaultConfig()), pool)
	if err != nil {
		log.Fatal(err)
	}
	server.OpenVC(shared)

	// A 4-port switch merges the three access lines onto one server port —
	// all on the same VC (no translation): multipoint-to-point.
	sw := netsim.NewSwitch(k, "mux", 4, units.STS3cPayload, 128, pool, nil)
	cap := trace.New(k)
	cap.Limit = 12
	sw.Port(3).AttachSink(atm.SinkFunc(cap.Tap(server.DeliverCell)))
	for i, s := range senders {
		sw.SetRoute(i, shared, 3, shared, netsim.RouteOptions{Class: tm.UBR})
		// Unequal access-line lengths stagger the senders' cell clocks.
		link := phy.NewCellLink(k, sim.Duration(1000+700*i), uint64(i+1), sw.Port(i), pool)
		s.AttachSink(link)
	}

	// The interface lends each SDU to the callback only until it returns,
	// so the server keeps a copy.
	received := map[uint16][]byte{}
	server.OnReceive(func(d nic.Delivered) { received[d.MID] = bytes.Clone(d.SDU) })

	for i, s := range senders {
		msg := []byte(fmt.Sprintf("message from access station %d over the shared VC", i))
		// Pad so the frames are long enough to interleave visibly.
		for len(msg) < 600 {
			msg = append(msg, '.')
		}
		if err := s.Send(shared, msg, nil); err != nil {
			log.Fatal(err)
		}
	}
	k.Run()

	fmt.Println("first cells on the server's access line (note the interleaved MIDs):")
	for i, r := range cap.Records() {
		mid := aal.MIDOf(&r.Cell.Payload)
		fmt.Printf("  cell %2d at %12v  vc=%v  mid=%d\n", i, r.At, r.Cell.Header.VC(), mid)
	}
	fmt.Println()
	for _, mid := range mids {
		msg := received[mid]
		if msg == nil {
			log.Fatalf("MID %d delivered nothing", mid)
		}
		fmt.Printf("MID %3d -> %q...\n", mid, msg[:44])
	}
	fmt.Printf("\n%d frames demultiplexed from one VC; AAL5 could not have done this.\n", len(received))
}
