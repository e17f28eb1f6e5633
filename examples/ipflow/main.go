// Ipflow: a realistic IP datagram mix (bimodal: mostly small packets, bytes
// mostly in MTU-size ones) offered to three receive architectures, with the
// receive host also trying to run an "application". Prints how much CPU the
// application actually gets — the paper's core argument made visible.
//
//	go run ./examples/ipflow
package main

import (
	"fmt"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

const (
	runTime  = 50 * sim.Millisecond
	appSlice = 500 // instructions per application work item
)

func main() {
	fmt.Println("bimodal IP mix at ~8 Mb/s offered; receive host also runs an application")
	fmt.Printf("\n%-22s %10s %10s %12s %14s\n",
		"architecture", "pkts rx", "host util", "interrupts", "app work done")

	for _, a := range []struct {
		name string
		arch core.Arch
	}{
		{"per-packet (paper)", core.Programmable},
		{"hardwired", core.Hardwired},
		{"per-cell baseline", core.PerCell},
	} {
		pkts, util, irqs, appDone := run(a.arch)
		fmt.Printf("%-22s %10d %9.1f%% %12d %14d\n", a.name, pkts, 100*util, irqs, appDone)
	}
	fmt.Println("\nthe per-cell adapter starves the application; the paper's interface does not.")
}

func run(arch core.Arch) (pkts uint64, util float64, irqs uint64, appDone int) {
	vc := atm.VC{VCI: 100}
	// Mean packet 2.8 KB every 2.8 ms ≈ 8 Mb/s — modest on purpose: even
	// this trickle monopolizes a per-cell-interrupt host.
	gen := workload.NewBimodalIP(7, 2800*sim.Microsecond)
	deadline := sim.Time(runTime)

	opts := core.Options{Arch: arch}
	net, err := core.NewNetwork(core.NetworkSpec{
		Endpoints: []core.EndpointSpec{{Name: "tx", Options: opts}, {Name: "rx", Options: opts}},
		Links: []core.LinkSpec{{Name: "ab", A: core.NodeRef{Node: "tx"}, B: core.NodeRef{Node: "rx"},
			Delay: 10_000, Seed: 5}},
		VCCs: []core.VCCSpec{{Name: "flow", From: "tx", To: "rx", VC: vc}},
	})
	if err != nil {
		panic(err)
	}
	k := net.Kernel()
	tx, rx := net.Endpoint("tx"), net.Endpoint("rx")
	drive(k, deadline, gen, func(sz int) { tx.Send(vc, make([]byte, sz), nil) })

	// The application: a chain of fixed work items competing with the
	// network for the receive host's CPU.
	var appLoop func()
	appLoop = func() {
		if k.Now() > deadline {
			return
		}
		rx.Host().Work(appSlice, func() {
			appDone++
			appLoop()
		})
	}
	appLoop()

	k.RunUntil(deadline)
	return rx.Stats().Rx.Packets, rx.Host().Utilization(), rx.Host().Interrupts(), appDone
}

func drive(k *sim.Kernel, deadline sim.Time, gen workload.Generator, send func(int)) {
	var tick func()
	tick = func() {
		if k.Now() > deadline {
			return
		}
		sz, gap := gen.Next()
		send(sz)
		k.After(gap, tick)
	}
	tick()
}
