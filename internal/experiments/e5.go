package experiments

import (
	"repro/internal/aal"
	"repro/internal/core"
	"repro/internal/engine"
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
		k := sim.NewKernel()
		eng := engine.New(k, "m", nic.DefaultConfig("x").Engine)
		hostCfg := hostDefault()
		// Component model. Wire serialization of all cells dominates the
		// middle of the pipeline; segmentation and reassembly overlap it
		// (the engines are faster per cell than the wire at STS-3c), so
		// the model counts them only via the per-packet ends.
		hostTx := hostInstrTime(hostCfg.InstrRate,
			hostCfg.DriverTxPacket+hostCfg.StackPerPacket+(size*hostCfg.StackPerByteMilli+999)/1000)
		pio := sim.Duration(4) * 600 // descriptor PIO words
		txStart := eng.RoutineTime(26)
		firstChunk := size + 8
		if firstChunk > 2048 {
			firstChunk = 2048
		}
		firstDMA := sim.Duration(200) + sim.Duration((firstChunk+3)/4)*40
		wire := sim.Duration(cells) * units.CellTime(units.STS3cPayload)
		eop := eng.RoutineTime(22)
		rxDMA := dmaTime(size)
		hostRx := hostInstrTime(hostCfg.InstrRate,
			hostCfg.InterruptEntry+hostCfg.InterruptExit+hostCfg.DriverRxPacket+
				hostCfg.StackPerPacket+(size*hostCfg.StackPerByteMilli+999)/1000)
		// Per-cell receive processing of the final cell sits between the
		// wire and EOP; one rx_cell routine covers it.
		rxCell := eng.RoutineTime(12 + 3 + 5)
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

// hostDefault mirrors host.DefaultConfig without importing the package's
// struct wholesale into the model (keeps the analytic model explicit).
type hostParams struct {
	InstrRate                         int64
	InterruptEntry, InterruptExit     int
	DriverRxPacket, DriverTxPacket    int
	StackPerPacket, StackPerByteMilli int
}

func hostDefault() hostParams {
	return hostParams{
		InstrRate: 25_000_000, InterruptEntry: 120, InterruptExit: 80,
		DriverRxPacket: 200, DriverTxPacket: 250,
		StackPerPacket: 450, StackPerByteMilli: 500,
	}
}

func hostInstrTime(rate int64, instr int) sim.Duration {
	ns := int64(instr) * 1_000_000_000 / rate
	if int64(instr)*1_000_000_000%rate != 0 {
		ns++
	}
	return sim.Duration(ns)
}

// dmaTime mirrors the default bus model's burst arithmetic.
func dmaTime(n int) sim.Duration {
	var t sim.Duration
	for n > 0 {
		chunk := n
		if chunk > 2048 {
			chunk = 2048
		}
		t += 200 + sim.Duration((chunk+3)/4)*40
		n -= chunk
	}
	return t
}
