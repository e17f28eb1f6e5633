// Package engine models the embedded RISC protocol engines (Intel 80960
// class) that the host interface architecture puts between the host bus and
// the cell stream — one on the transmit side running segmentation firmware,
// one on the receive side running reassembly firmware.
//
// The paper's central quantitative exercise is a cycle budget: count the
// instructions each firmware routine executes per cell, multiply by the
// engine's cycle time, and compare against the cell interarrival time
// (2.7 µs at 155 Mb/s, 0.68 µs at 622 Mb/s).  This package is that model
// made executable: firmware routines are declared as named instruction
// counts (see the nic package for the per-routine pseudo-code they were
// counted from), and Run charges simulated engine time accordingly.
//
// Cost conventions: single-cycle register instructions (the i960 issues most
// ALU ops in one cycle), with memory touches and FIFO accesses charged extra
// cycles by the routine definitions themselves.  The CPI knob covers
// everything we don't model (cache misses, branch bubbles).
package engine

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// Config sets an engine's speed.
type Config struct {
	// ClockHz is the processor clock. The board's i960 ran at 25 MHz.
	ClockHz int64
	// CPI is average cycles per instruction, in thousandths (1000 = 1.0).
	// The i960 sustains close to 1.0 on register code; 1500 is a
	// conservative figure once load/store stalls are included.
	CPIMilli int64
	// DispatchInstr is the fixed instruction overhead to enter a firmware
	// routine: the event-loop poll, vector dispatch, and register save.
	// The i960's register-window design made this small (~10 instructions
	// versus ~50+ for a full interrupt frame) — one of the reasons the
	// paper's architecture could afford per-cell firmware at all.
	DispatchInstr int
}

// DefaultConfig is a 25 MHz i960 with CPI 1.2 and 10-instruction dispatch.
func DefaultConfig() Config {
	return Config{ClockHz: 25_000_000, CPIMilli: 1200, DispatchInstr: 10}
}

// Engine is one protocol processor. All firmware runs to completion: the
// engines poll FIFOs rather than take nested interrupts, so routines are
// serialized, which a sim.Resource captures exactly.
type Engine struct {
	cfg Config
	res *sim.Resource

	// routineNS caches RoutineTime by instruction count: entry i is filled
	// on its first use with InstrTime(i + DispatchInstr), so a routine is
	// priced without a division after its first run. Every routine the
	// interface runs is below len(routineNS) instructions; longer ones are
	// divided each time.
	routineNS [64]sim.Duration

	// Registry instruments (nil until Instrument is called; nil-safe).
	mRoutines *metrics.Counter
	mInstr    *metrics.Counter
	mBusy     *metrics.Counter
	mQueue    *metrics.Gauge
}

// New creates an engine.
func New(k *sim.Kernel, cfg Config) *Engine {
	if cfg.ClockHz <= 0 {
		panic("engine: non-positive clock")
	}
	if cfg.CPIMilli <= 0 {
		cfg.CPIMilli = 1000
	}
	return &Engine{cfg: cfg, res: sim.NewResource(k)}
}

// Instrument registers the engine's telemetry under the given name prefix:
// "<prefix>.routines" and "<prefix>.instr" counters, a "<prefix>.busy_ns"
// counter of accumulated firmware occupancy, and a "<prefix>.qlen" gauge
// whose high watermark is the deepest the routine queue ever got.
func (e *Engine) Instrument(reg *metrics.Registry, prefix string) {
	e.mRoutines = reg.Counter(prefix + ".routines")
	e.mInstr = reg.Counter(prefix + ".instr")
	e.mBusy = reg.Counter(prefix + ".busy_ns")
	e.mQueue = reg.Gauge(prefix + ".qlen")
}

// InstrTime converts an instruction count to engine-occupancy time,
// including nothing but the instructions themselves.
func (e *Engine) InstrTime(instr int) sim.Duration {
	if instr < 0 {
		panic(fmt.Sprintf("engine: negative instruction count %d", instr))
	}
	// ns = instr * CPI * 1e9 / clock. CPIMilli is thousandths.
	cycles := int64(instr) * e.cfg.CPIMilli // milli-cycles
	ns := cycles * 1_000_000 / e.cfg.ClockHz
	// Round up: an engine cannot finish a routine mid-cycle.
	if cycles*1_000_000%e.cfg.ClockHz != 0 {
		ns++
	}
	return sim.Duration(ns)
}

// RoutineTime is InstrTime plus the dispatch overhead — the wall time one
// firmware activation occupies the engine.
func (e *Engine) RoutineTime(instr int) sim.Duration {
	if uint(instr) < uint(len(e.routineNS)) {
		if d := e.routineNS[instr]; d != 0 {
			return d
		}
	}
	return e.priceRoutine(instr)
}

// priceRoutine divides out RoutineTime, filling in its table entry. It is
// apart from RoutineTime so that the table read inlines into Run.
func (e *Engine) priceRoutine(instr int) sim.Duration {
	d := e.InstrTime(instr + e.cfg.DispatchInstr)
	if uint(instr) < uint(len(e.routineNS)) {
		e.routineNS[instr] = d
	}
	return d
}

// Run schedules one firmware routine (instr instructions plus dispatch) on
// the engine. done runs when the routine completes; routines queue FIFO.
// The return value is the predicted completion time.
func (e *Engine) Run(instr int, done func()) sim.Time {
	d := e.RoutineTime(instr)
	e.mRoutines.Inc()
	e.mInstr.Add(uint64(instr + e.cfg.DispatchInstr))
	e.mBusy.Add(uint64(d))
	e.mQueue.Set(int64(e.res.QueueLen()))
	return e.res.Use(d, done)
}

// Utilization is the fraction of simulated time the engine was busy.
func (e *Engine) Utilization() float64 { return e.res.Utilization() }
