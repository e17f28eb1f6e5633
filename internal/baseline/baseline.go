// Package baseline implements the two architectures the paper's design is
// argued against:
//
//   - HostSAR: a "dumb" adapter that is nothing but a framer and a pair of
//     cell FIFOs. The host CPU segments and reassembles in software, moves
//     every cell across the bus by programmed I/O, and takes an interrupt
//     per received cell. This was how several contemporary interfaces
//     worked, and it is what makes the host the bottleneck (experiment E4).
//
//   - Hardwired: the other extreme — fully fixed-function SAR hardware with
//     per-packet host involvement, i.e. the paper's datapath with the
//     protocol engines replaced by gates. It is as fast as the wire but
//     frozen: no new adaptation layer without new silicon. Its cost model
//     here is the programmable interface with effectively infinite engine
//     speed, which is exactly what "the firmware is free" means.
//
// Both take nic.New's arguments, so core.NewNetwork builds either one in
// the paper's interface's place (core.Hardwired, core.PerCell).
package baseline

import (
	"repro/internal/atm"
	"repro/internal/bus"
	"repro/internal/engine"
	"repro/internal/host"
	"repro/internal/nic"
	"repro/internal/sim"
)

// NewHardwired returns a nic.Interface whose protocol engines are infinitely
// fast fixed-function hardware (1 GHz, CPI 1, zero dispatch — three orders
// of magnitude beyond the cell time, so per-cell firmware cost vanishes).
func NewHardwired(k *sim.Kernel, cfg nic.Config, hst *host.Host, b *bus.Bus, pool *atm.Pool) (*nic.Interface, error) {
	cfg.Engine = engine.Config{ClockHz: 1_000_000_000, CPIMilli: 1000, DispatchInstr: 0}
	return nic.New(k, cfg, hst, b, pool)
}

// Software SAR costs for the HostSAR baseline, in host instructions.
// Counted the same way as the firmware tables in package nic, but on the
// host: no hardware CRC, no header-build assist, everything touched by the
// CPU.
const (
	// hostTxCellInstr: build the SAR state, software CRC-32 contribution
	// for 48 bytes (~3 instr/byte with a table), header construction.
	hostTxCellInstr = 200
	// hostRxCellInstr: software reassembly append + CRC update per cell,
	// excluding the interrupt overhead (charged separately) and the PIO
	// data movement (charged to the bus).
	hostRxCellInstr = 190
	// cellPIOWords: a 53-byte cell is 13.25 words; 14 PIO accesses move
	// it through the adapter's window register.
	cellPIOWords = 14
)
