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
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/netsim"
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

	for _, arch := range []string{"per-packet (paper)", "hardwired", "per-cell baseline"} {
		pkts, util, irqs, appDone := run(arch)
		fmt.Printf("%-22s %10d %9.1f%% %12d %14d\n", arch, pkts, 100*util, irqs, appDone)
	}
	fmt.Println("\nthe per-cell adapter starves the application; the paper's interface does not.")
}

func run(arch string) (pkts uint64, util float64, irqs uint64, appDone int) {
	var k *sim.Kernel
	vc := atm.VC{VCI: 100}
	// Mean packet 2.8 KB every 2.8 ms ≈ 8 Mb/s — modest on purpose: even
	// this trickle monopolizes a per-cell-interrupt host.
	gen := workload.NewBimodalIP(7, 2800*sim.Microsecond)
	deadline := sim.Time(runTime)

	type rxSide interface {
		hostUtil() float64
		interrupts() uint64
		packets() uint64
	}

	var side rxSide
	var appHost *host.Host

	switch arch {
	case "per-cell baseline":
		// The host-SAR adapter is not an interface the builder models, so
		// the baseline pair is wired by hand.
		k = sim.NewKernel()
		tx := netsim.NewBaselineStation(k, "tx", baseline.DefaultConfig())
		rx := netsim.NewBaselineStation(k, "rx", baseline.DefaultConfig())
		netsim.ConnectBaseline(k, tx, rx, netsim.LinkConfig{Delay: 10_000, Seed: 5})
		rx.Adapter.OpenVC(vc)
		drive(k, deadline, gen, func(sz int) { tx.Adapter.Send(vc, make([]byte, sz), nil) })
		side = baselineSide{rx}
		appHost = rx.Host
	default:
		opts := core.Options{Hardwired: arch == "hardwired"}
		net, err := core.NewNetwork(core.NetworkSpec{
			Endpoints: []core.EndpointSpec{{Name: "tx", Options: opts}, {Name: "rx", Options: opts}},
			Links: []core.LinkSpec{{Name: "ab", A: core.NodeRef{Node: "tx"}, B: core.NodeRef{Node: "rx"},
				Delay: 10_000, Seed: 5}},
			VCCs: []core.VCCSpec{{Name: "flow", From: "tx", To: "rx", VC: vc}},
		})
		if err != nil {
			panic(err)
		}
		k = net.Kernel()
		tx, rx := net.Endpoint("tx"), net.Endpoint("rx")
		drive(k, deadline, gen, func(sz int) { tx.Send(vc, make([]byte, sz), nil) })
		side = nicSide{rx}
		appHost = rx.Host()
	}

	// The application: a chain of fixed work items competing with the
	// network for the receive host's CPU.
	var appLoop func()
	appLoop = func() {
		if k.Now() > deadline {
			return
		}
		appHost.Work(appSlice, func() {
			appDone++
			appLoop()
		})
	}
	appLoop()

	k.RunUntil(deadline)
	util = side.hostUtil()
	pkts = side.packets()
	irqs = side.interrupts()
	return pkts, util, irqs, appDone
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

type nicSide struct{ e *core.Endpoint }

func (n nicSide) hostUtil() float64  { return n.e.Host().Utilization() }
func (n nicSide) interrupts() uint64 { return n.e.Host().Interrupts() }
func (n nicSide) packets() uint64    { return n.e.Stats().Rx.Packets }

type baselineSide struct{ s *netsim.BaselineStation }

func (b baselineSide) hostUtil() float64  { return b.s.Host.Utilization() }
func (b baselineSide) interrupts() uint64 { return b.s.Host.Interrupts() }
func (b baselineSide) packets() uint64    { return b.s.Adapter.Stats().RxPackets }
