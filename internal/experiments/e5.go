package experiments

import (
	"repro/internal/aal"
	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/host"
	"repro/internal/nic"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/units"
)

// E5Row is the latency breakdown for one packet size.
type E5Row struct {
	Size  int
	Cells int
	// Model components (ns): host send path, staging DMA (first chunk),
	// wire serialization, propagation, receive-side DMA, host receive
	// interrupt.
	HostTx   sim.Duration
	FirstDMA sim.Duration
	WireTime sim.Duration
	Prop     sim.Duration
	RxDMA    sim.Duration
	HostRx   sim.Duration
	ModelSum sim.Duration
	Measured sim.Duration // from the discrete-event run
}

// E5 measures single-packet end-to-end latency for three sizes and compares
// it against an analytic component model. Paper shape: small packets are
// dominated by fixed per-packet costs (host, interrupt, DMA setup); large
// packets by wire serialization; the model accounts for the measurement to
// within the pipelining slack it deliberately ignores.
func E5() ([]E5Row, *report.Table) {
	sizes := []int{96, 9180, 65535}
	delay := sim.Duration(10_000) // 2 km
	var rows []E5Row
	for _, size := range sizes {
		var measured sim.Duration
		payload := make([]byte, size)
		runPair(core.Options{}, core.LinkSpec{Delay: delay, Seed: 3}, sim.Second,
			func(k *sim.Kernel, a, b *core.Endpoint) {
				start := k.Now()
				b.OnReceive(func(p core.Packet) { measured = p.At - start })
				a.Send(stdVC, payload, nil)
			})

		cells := aal.CellsForSDU5(size)
		// Component model, every price read from the model that charges
		// it: idle host and bus models report what one operation
		// occupies, and the firmware budgets come from nic. Wire
		// serialization of all cells dominates the middle of the
		// pipeline; segmentation and reassembly overlap it (the engines
		// are faster per cell than the wire at STS-3c), so the model
		// counts them only via the per-packet ends.
		eng := engine.New(sim.NewKernel(), nic.DefaultConfig("x").Engine)
		dev := bus.New(sim.NewKernel(), bus.DefaultConfig()).Attach("x")
		hostTx := sim.Duration(idleHost().TxPacket(size, nil))
		pio := sim.Duration(dev.PIO(nic.DescriptorWords, nil))
		txStart := eng.RoutineTime(nic.TxFirmwareCosts(aal.AAL5)[0].Instr)
		// The first staging burst carries the SDU alone: the engine
		// builds the AAL5 trailer on board.
		firstDMA := dev.DMATime(min(size, dev.MaxBurst()))
		wire := sim.Duration(cells) * units.CellTime(units.STS3cPayload)
		rx := boardRxCosts()
		eop := eng.RoutineTime(rx[1].Instr)
		rxDMA := dev.DMATime(size)
		hostRx := sim.Duration(idleHost().RxPacketInterrupt(size, nil))
		// Per-cell receive processing of the final cell sits between the
		// wire and EOP; one rx_cell routine covers it.
		rxCell := eng.RoutineTime(rx[0].Instr)
		model := hostTx + pio + txStart + firstDMA + wire + delay + rxCell + eop + rxDMA + hostRx

		rows = append(rows, E5Row{
			Size: size, Cells: cells,
			HostTx: hostTx + pio + txStart, FirstDMA: firstDMA,
			WireTime: wire, Prop: delay, RxDMA: rxDMA, HostRx: rxCell + eop + hostRx,
			ModelSum: model, Measured: measured,
		})
	}
	tb := report.NewTable("E5: single-packet latency breakdown (STS-3c, AAL5, 2 km)",
		"sdu", "cells", "host-tx", "1st-dma", "wire", "prop", "rx-dma", "host-rx", "model", "measured")
	tb.Note = "model ignores pipeline overlap slack; measured is the discrete-event result"
	for _, r := range rows {
		tb.Row(r.Size, r.Cells, r.HostTx.String(), r.FirstDMA.String(), r.WireTime.String(),
			r.Prop.String(), r.RxDMA.String(), r.HostRx.String(), r.ModelSum.String(), r.Measured.String())
	}
	return rows, tb
}

// idleHost is a fresh workstation model: what one operation on it returns
// as its completion time is that operation's price.
func idleHost() *host.Host { return host.New(sim.NewKernel(), host.DefaultConfig()) }
