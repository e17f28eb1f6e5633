package nic

import (
	"fmt"

	"repro/internal/aal"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/units"
)

// Config parameterizes one interface.
type Config struct {
	// Name prefixes diagnostic names ("a.tx", "a.rx").
	Name string
	// PayloadRate is the ATM payload rate of the attached link
	// (units.STS3cPayload or units.STS12cPayload).
	PayloadRate units.BitRate
	// AAL selects the adaptation layer firmware build.
	AAL aal.Type
	// Engine is the protocol-engine model used for both engines.
	Engine engine.Config
	// TxFifoDepth and RxFifoDepth size the cell FIFOs between the
	// engines and the framer, in cells.
	TxFifoDepth int
	RxFifoDepth int
	// MaxVCs bounds the VC table: the receive path's CAM entries.
	MaxVCs int
	// AdapterSRAM bounds the paged reassembly memory in bytes
	// (0 = unlimited).
	AdapterSRAM int
	// MaxSDU bounds accepted packet size.
	MaxSDU int
	// RxEngines sets how many parallel receive engines share the load
	// (default 1 — the board as built). Cells are steered by a hardware
	// VC hash, so one VC's cells stay ordered on one engine; scaling is
	// across connections. Each engine gets its own RxFifoDepth FIFO.
	RxEngines int
	// MIDMux (AAL3/4 only) enables multiplexing-identifier demultiplexing
	// on receive: frames from several senders may interleave cell-by-cell
	// on ONE VC, distinguished by their 10-bit MID — the shared-VC
	// (SMDS/CLNAP-style) service AAL3/4 was designed for. Senders pick
	// their MID with Interface.SetMID.
	MIDMux bool
	// ReassemblyTimeout ages out abandoned receive state: a partial frame
	// (or AAL3/4 MID slot) that has seen no cell for this long is aborted
	// and its adapter-SRAM buffer reclaimed, instead of leaking toward
	// buffer exhaustion when a lost end-of-message strands it. Zero
	// (default) disables the garbage collector.
	ReassemblyTimeout sim.Duration
	// AlarmPeriod is the F5 fault-management cadence: while a VC is in an
	// AIS or loss-of-signal defect state, the receive firmware emits one
	// RDI cell upstream per period and the defect's clear timer is
	// refreshed. Zero selects 1 ms — a millisecond-scale stand-in for
	// I.610's nominal 1 s, so simulations measured in milliseconds
	// exercise the machinery.
	AlarmPeriod sim.Duration
	// AlarmClearTimeout clears a declared alarm after this long without a
	// defect indication (I.610's 2.5 s soak interval, scaled; zero
	// selects 2.5 ms).
	AlarmClearTimeout sim.Duration
	// InterleaveVCs lets the transmit engine segment frames from several
	// VCs concurrently, emitting their cells round-robin. Off, the engine
	// finishes each frame before starting the next (the base design);
	// on, one VC's long frame no longer holds up another's — the QoS
	// behaviour per-VC pacing needs. Cells of a single VC's frame are
	// never interleaved with each other (AAL requirement).
	InterleaveVCs bool
	// Metrics is the telemetry registry the interface records into. All
	// instrument names are prefixed with Name ("a.nic.tx.cells"), so
	// several interfaces can share one registry and a simulation gets a
	// single unified snapshot. Nil means the interface creates a private
	// registry, reachable via Interface.Metrics.
	Metrics *metrics.Registry
}

// DefaultConfig returns the as-built board: STS-3c, AAL5 firmware, 25 MHz
// engines, 32-cell FIFOs, a 256-entry CAM, paged reassembly buffers in
// 256 KiB of adapter SRAM.
func DefaultConfig(name string) Config {
	return Config{
		Name:        name,
		PayloadRate: units.STS3cPayload,
		AAL:         aal.AAL5,
		Engine:      engine.DefaultConfig(),
		TxFifoDepth: 32,
		RxFifoDepth: 32,
		MaxVCs:      256,
		AdapterSRAM: 256 * 1024,
		MaxSDU:      aal.MaxSDU,
	}
}

func (c *Config) validate() error {
	if c.PayloadRate <= 0 {
		return fmt.Errorf("nic: non-positive payload rate")
	}
	if c.TxFifoDepth <= 0 || c.RxFifoDepth <= 0 {
		return fmt.Errorf("nic: FIFO depths must be positive")
	}
	if c.MaxVCs <= 0 {
		return fmt.Errorf("nic: MaxVCs must be positive")
	}
	if c.RxEngines < 0 || c.RxEngines > 64 {
		return fmt.Errorf("nic: RxEngines %d out of range", c.RxEngines)
	}
	if c.MIDMux && c.AAL != aal.AAL34 {
		return fmt.Errorf("nic: MIDMux requires AAL3/4")
	}
	if c.RxEngines == 0 {
		c.RxEngines = 1
	}
	if c.MaxSDU <= 0 {
		c.MaxSDU = aal.MaxSDU
	}
	if c.MaxSDU > aal.MaxSDU {
		return fmt.Errorf("nic: MaxSDU %d exceeds AAL limit %d", c.MaxSDU, aal.MaxSDU)
	}
	if c.ReassemblyTimeout < 0 {
		return fmt.Errorf("nic: negative ReassemblyTimeout")
	}
	if c.AlarmPeriod == 0 {
		c.AlarmPeriod = sim.Millisecond
	}
	if c.AlarmClearTimeout == 0 {
		c.AlarmClearTimeout = 2500 * sim.Microsecond
	}
	return nil
}

// scoped prefixes an instrument name with the interface name, keeping
// multi-station registries collision-free ("a.nic.tx.cells").
func scoped(prefix, name string) string {
	if prefix == "" {
		return name
	}
	return prefix + "." + name
}

// perCellPayload returns SAR payload bytes per cell for the configured AAL.
func (c *Config) perCellPayload() int { return c.AAL.PerCellPayload() }

// maxFrameCells returns the largest cell count a frame can reach.
func (c *Config) maxFrameCells() int {
	if c.AAL == aal.AAL34 {
		return aal.CellsForSDU34(c.MaxSDU)
	}
	return aal.CellsForSDU5(c.MaxSDU)
}
