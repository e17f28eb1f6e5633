// Filetransfer: bulk data across the interface — the workload the paper's
// throughput analysis is about. Sweeps the transfer's record size and both
// adaptation layers, and prints achieved goodput against the physics
// ceiling, showing (a) per-packet cost amortization and (b) AAL3/4's
// per-cell tax versus AAL5.
//
//	go run ./examples/filetransfer
package main

import (
	"fmt"
	"log"

	"repro/internal/aal"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/units"
)

const fileSize = 4 << 20 // 4 MiB transfer

func main() {
	fmt.Printf("transferring %d bytes over STS-3c, varying record size\n\n", fileSize)
	fmt.Printf("%-8s %-7s %12s %12s %9s\n", "record", "aal", "goodput", "ceiling", "achieved")

	for _, aal34 := range []bool{false, true} {
		for _, record := range []int{512, 4096, 9180, 65535} {
			goodput, ceiling := transfer(record, aal34)
			name := "AAL5"
			if aal34 {
				name = "AAL3/4"
			}
			fmt.Printf("%-8d %-7s %9.2f Mb/s %9.2f Mb/s %8.1f%%\n",
				record, name, goodput/1e6, ceiling/1e6, 100*goodput/ceiling)
		}
	}
}

// transfer ships fileSize bytes in record-sized packets and returns the
// achieved and ceiling goodput in bits per second.
func transfer(record int, aal34 bool) (goodput, ceiling float64) {
	// Two stations on a 2 km fiber, one connection from A to B.
	opts := core.Options{AAL34: aal34}
	vc := core.VC{VCI: 7}
	net, err := core.NewNetwork(core.NetworkSpec{
		Endpoints: []core.EndpointSpec{{Name: "A", Options: opts}, {Name: "B", Options: opts}},
		Links: []core.LinkSpec{{Name: "ab",
			A: core.NodeRef{Node: "A"}, B: core.NodeRef{Node: "B"}, DistanceKm: 2}},
		VCCs: []core.VCCSpec{{Name: "file", From: "A", To: "B", VC: vc}},
	})
	if err != nil {
		log.Fatal(err)
	}
	a, b := net.Endpoint("A"), net.Endpoint("B")

	var receivedBytes int
	var done sim.Time
	b.OnReceive(func(p core.Packet) {
		receivedBytes += len(p.Data)
		if receivedBytes >= fileSize {
			done = p.At
		}
	})

	// The "application": keep 4 records in flight until the file is sent.
	remaining := fileSize
	var pump func()
	pump = func() {
		if remaining <= 0 {
			return
		}
		n := record
		if n > remaining {
			n = remaining
		}
		remaining -= n
		if err := a.Send(vc, make([]byte, n), pump); err != nil {
			log.Fatal(err)
		}
	}
	for i := 0; i < 4 && remaining > 0; i++ {
		pump()
	}
	net.Run()

	if done == 0 {
		log.Fatalf("transfer incomplete: %d of %d bytes", receivedBytes, fileSize)
	}
	goodput = float64(fileSize) * 8 / done.Seconds()

	cells := aal.CellsForSDU5(record)
	if aal34 {
		cells = aal.CellsForSDU34(record)
	}
	ceiling = float64(units.STS3cPayload) * float64(record) / float64(cells*53)
	return goodput, ceiling
}
