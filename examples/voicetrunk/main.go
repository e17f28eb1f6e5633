// Voicetrunk: circuit emulation over ATM with AAL1 — the constant-bit-rate
// service the cell size was chosen for. A 64 kb/s "voice channel" (8 kB/s,
// one byte per 125 µs, like a DS0) is cellified, carried over a lossy
// fiber, and reproduced; AAL1's 3-bit sequence count detects losses and the
// receiver conceals them with silence so the circuit's clock never slips.
//
//	go run ./examples/voicetrunk
package main

import (
	"fmt"

	"repro/internal/aal"
	"repro/internal/atm"
	"repro/internal/phy"
	"repro/internal/sim"
)

const (
	byteRate   = 8000                                     // bytes/s: a DS0 voice channel
	callLength = 10 * sim.Second                          // simulated call duration
	cellEvery  = sim.Duration(47 * sim.Second / byteRate) // 47 bytes fill time
)

func main() {
	fmt.Printf("64 kb/s voice over AAL1: one 47-byte cell every %v\n\n", cellEvery)
	fmt.Printf("%-12s %10s %10s %12s %14s\n",
		"cell loss", "cells", "lost", "concealed-B", "clock-slip-B")
	for _, loss := range []float64{0, 1e-4, 1e-3, 1e-2} {
		run(loss)
	}
	fmt.Println("\nthe reproduced stream length never drifts: losses become silence,")
	fmt.Println("not time — the property circuit emulation exists to provide.")
}

func run(lossProb float64) {
	k := sim.NewKernel()
	tx := aal.NewAAL1Sender()
	rx := aal.NewAAL1Receiver()
	vc := atm.VC{VPI: 0, VCI: 16}

	pool := atm.NewPool(0)
	link := phy.NewCellLink(k, 25_000, 99, atm.SinkFunc(func(c *atm.Cell) {
		rx.Push(&c.Payload)
		pool.Put(c)
	}), pool)
	link.LossProb = lossProb

	// The codec side: produce voice bytes continuously, emit a cell
	// whenever 47 bytes have accumulated (every ~5.875 ms).
	sent := 0
	var bytesIn int
	var tick func()
	tick = func() {
		if sim.Duration(k.Now()) >= callLength {
			return
		}
		chunk := make([]byte, 47)
		for i := range chunk {
			chunk[i] = byte(bytesIn + i) // the "voice" samples
		}
		bytesIn += 47
		tx.Write(chunk)
		cell := pool.Get()
		cell.Header = atm.Header{Format: atm.UNI, VPI: vc.VPI, VCI: vc.VCI}
		if tx.NextCell(&cell.Payload) {
			link.Send(cell)
			sent++
		} else {
			pool.Put(cell)
		}
		k.After(cellEvery, tick)
	}
	tick()
	k.Run()

	// Every sent cell accounts for 47 reproduced bytes: delivered ones
	// carry samples, lost ones are concealed as silence. Any difference
	// is clock slip — the failure circuit emulation must never have.
	reproduced := rx.Pending()
	concealed := int(rx.LostCells) * aal.AAL1Payload
	slip := sent*aal.AAL1Payload - reproduced
	fmt.Printf("%-12.0e %10d %10d %12d %14d\n",
		lossProb, sent, rx.LostCells, concealed, slip)
}
