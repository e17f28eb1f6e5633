// Package host models the workstation behind the interface: a single CPU
// that must run the application *and* every per-packet (or, in the baseline
// architecture, per-cell) networking cost — interrupt handling, the device
// driver, and the protocol stack.
//
// The paper's host-involvement argument is quantitative: a 9180-byte packet
// is 192 cells, so an interface that interrupts per cell asks the host for
// 192 interrupt round-trips where the paper's architecture asks for one.
// Experiment E4 plots what that does to host CPU utilization as offered
// load rises; this package's CPU occupancy is what those curves measure.
package host

import (
	"repro/internal/sim"
)

// Config sets the host CPU model. Instruction counts follow the DECstation
// 5000-class workstation of the paper's era.
type Config struct {
	// InstrRate is sustained instructions per second (≈25 MIPS).
	InstrRate int64
	// InterruptEntry/Exit are the mode-switch costs around every device
	// interrupt: trap, register save, dispatch; restore, return.
	InterruptEntry int
	InterruptExit  int
	// DriverRxPacket is driver work per received packet: read status,
	// unlink buffer, hand to stack, replenish descriptor.
	DriverRxPacket int
	// DriverTxPacket is driver work per transmitted packet: build
	// descriptor, PIO doorbell bookkeeping (bus time charged separately).
	DriverTxPacket int
	// DriverRxCell is driver work per *cell* for the per-cell-interrupt
	// baseline: read cell from board, append to pbuf, check for EOP.
	DriverRxCell int
	// StackPerPacket is transport+network per-packet cost (headers,
	// demux, ACK bookkeeping).
	StackPerPacket int
	// StackPerByteMilli is per-byte cost in thousandths of an instruction
	// (checksum + any copy), e.g. 500 = 0.5 instr/byte.
	StackPerByteMilli int
}

// DefaultConfig returns the workstation model used across the experiments.
func DefaultConfig() Config {
	return Config{
		InstrRate:         25_000_000,
		InterruptEntry:    120,
		InterruptExit:     80,
		DriverRxPacket:    200,
		DriverTxPacket:    250,
		DriverRxCell:      90,
		StackPerPacket:    450,
		StackPerByteMilli: 500,
	}
}

// Host is the workstation CPU.
type Host struct {
	cfg Config
	cpu *sim.Resource

	// nsPerInstr is 1e9/InstrRate when that division is exact (40 ns at
	// the default 25 MIPS), so InstrTime is one multiply; it is zero for
	// any other rate, which InstrTime divides out each time.
	nsPerInstr int64

	interrupts uint64
}

// New creates a host on kernel k.
func New(k *sim.Kernel, cfg Config) *Host {
	if cfg.InstrRate <= 0 {
		panic("host: non-positive instruction rate")
	}
	h := &Host{cfg: cfg, cpu: sim.NewResource(k)}
	if 1_000_000_000%cfg.InstrRate == 0 {
		h.nsPerInstr = 1_000_000_000 / cfg.InstrRate
	}
	return h
}

// InstrTime converts instructions to CPU time (rounded up).
func (h *Host) InstrTime(instr int) sim.Duration {
	if instr <= 0 {
		return 0
	}
	if h.nsPerInstr != 0 {
		return sim.Duration(int64(instr) * h.nsPerInstr)
	}
	ns := int64(instr) * 1_000_000_000 / h.cfg.InstrRate
	if int64(instr)*1_000_000_000%h.cfg.InstrRate != 0 {
		ns++
	}
	return sim.Duration(ns)
}

// Work charges instr instructions of CPU work (the application, a driver
// or the stack), then calls done. Work queues FIFO behind whatever already
// holds the CPU; the return value is the predicted completion time.
func (h *Host) Work(instr int, done func()) sim.Time {
	return h.cpu.Use(h.InstrTime(instr), done)
}

// Spin occupies the CPU for a fixed duration — programmed I/O: the
// processor drives the bus transaction itself and does nothing else
// meanwhile. The duration is charged as the equivalent whole instruction
// count, at least one.
func (h *Host) Spin(d sim.Duration, done func()) sim.Time {
	instr := int(int64(d) * h.cfg.InstrRate / 1_000_000_000)
	if instr < 1 {
		instr = 1
	}
	return h.Work(instr, done)
}

// Interrupt charges a full interrupt round trip (entry + body + exit). The
// body instruction count excludes the mode switches.
func (h *Host) Interrupt(body int, done func()) sim.Time {
	h.interrupts++
	return h.Work(h.cfg.InterruptEntry+body+h.cfg.InterruptExit, done)
}

// RxPacketInterrupt charges the per-packet receive path: interrupt + driver
// + stack (per-packet and per-byte terms).
func (h *Host) RxPacketInterrupt(payloadBytes int, done func()) sim.Time {
	body := h.cfg.DriverRxPacket + h.cfg.StackPerPacket +
		(payloadBytes*h.cfg.StackPerByteMilli+999)/1000
	return h.Interrupt(body, done)
}

// RxCellInterrupt charges the per-cell receive path the baseline suffers.
// eop adds the per-packet stack cost on the final cell of a packet.
func (h *Host) RxCellInterrupt(payloadBytes int, eop bool, done func()) sim.Time {
	body := h.cfg.DriverRxCell + (payloadBytes*h.cfg.StackPerByteMilli+999)/1000
	if eop {
		body += h.cfg.StackPerPacket + h.cfg.DriverRxPacket
	}
	return h.Interrupt(body, done)
}

// TxPacket charges the per-packet transmit path: stack + driver (syscall
// context, no interrupt).
func (h *Host) TxPacket(payloadBytes int, done func()) sim.Time {
	instr := h.cfg.DriverTxPacket + h.cfg.StackPerPacket +
		(payloadBytes*h.cfg.StackPerByteMilli+999)/1000
	return h.Work(instr, done)
}

// TxCompleteInterrupt charges the transmit-done interrupt (descriptor
// reclaim).
func (h *Host) TxCompleteInterrupt(done func()) sim.Time {
	return h.Interrupt(60, done)
}

// Utilization is the fraction of simulated time the CPU was busy.
func (h *Host) Utilization() float64 { return h.cpu.Utilization() }

// Interrupts returns the total interrupts taken.
func (h *Host) Interrupts() uint64 { return h.interrupts }
