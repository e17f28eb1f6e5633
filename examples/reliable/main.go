// Reliable: a host-resident go-back-N transport over the interface — the
// division of labor the paper prescribes (adapter does AAL, host does
// transport) run end to end over an increasingly lossy path.
//
// The output shows both sides of the era's argument: the transport makes
// delivery reliable, and the combination of AAL5 whole-frame discard with
// go-back-N recovery makes effective throughput collapse under cell loss —
// the pain that motivated FEC and selective-retransmission research.
//
//	go run ./examples/reliable
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/nic"
	"repro/internal/sim"
	"repro/internal/transport"
)

const fileSize = 1 << 20 // 1 MiB per transfer

func main() {
	fmt.Printf("reliable 1 MiB transfers over STS-3c, go-back-N on the hosts\n\n")
	fmt.Printf("%-10s %12s %12s %12s %10s\n",
		"cell loss", "goodput", "segments", "retransmits", "timeouts")
	for _, loss := range []float64{0, 1e-4, 5e-4, 2e-3, 5e-3} {
		run(loss)
	}
	fmt.Println("\ndelivery stays perfect; throughput does not — AAL5 turns one lost cell")
	fmt.Println("into a lost 8 KiB segment, and go-back-N resends the whole window after it.")
}

func run(loss float64) {
	vc := atm.VC{VCI: 60}
	net, err := core.NewNetwork(core.NetworkSpec{
		Endpoints: []core.EndpointSpec{{Name: "a"}, {Name: "b"}},
		Links: []core.LinkSpec{{Name: "ab", A: core.NodeRef{Node: "a"}, B: core.NodeRef{Node: "b"},
			Delay: 10_000, LossProb: loss, Seed: 7}},
		VCCs: []core.VCCSpec{{Name: "ab", From: "a", To: "b", VC: vc, Duplex: true}},
	})
	if err != nil {
		log.Fatal(err)
	}
	k := net.Kernel()
	a, b := net.Endpoint("a").Interface(), net.Endpoint("b").Interface()

	cfg := transport.DefaultConfig()
	cfg.RTO = 5 * sim.Millisecond
	cfg.MaxRetries = 100
	tx := transport.NewSender(k, a, vc, cfg)

	file := make([]byte, fileSize)
	for i := range file {
		file[i] = byte(i * 7)
	}
	var got []byte
	rx := transport.NewReceiver(b, vc, func(msg []byte) { got = msg })
	b.OnReceive(func(d nic.Delivered) { rx.HandleData(d.SDU) })
	a.OnReceive(func(d nic.Delivered) { tx.HandleAck(d.SDU) })

	var done sim.Time
	if err := tx.Send(file, func(err error) {
		if err != nil {
			log.Fatalf("loss %v: %v", loss, err)
		}
		done = k.Now()
	}); err != nil {
		log.Fatal(err)
	}
	k.Run()
	if !bytes.Equal(got, file) {
		log.Fatalf("loss %v: file corrupted", loss)
	}
	st := tx.Stats()
	goodput := float64(fileSize) * 8 / done.Seconds() / 1e6
	fmt.Printf("%-10.0e %9.2f Mb/s %12d %12d %10d\n",
		loss, goodput, st.Segments, st.Retransmits, st.Timeouts)
}
