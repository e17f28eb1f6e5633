// Package core is the library's front door: NewNetwork assembles the
// simulated hardware (host, bus, protocol engines, FIFOs, fiber, switches)
// from one declarative NetworkSpec, so examples and downstream users don't
// touch the wiring. A two-station testbed is the spec with two endpoints
// and one link between them.
//
// The architecture under the hood is the SIGCOMM '91 host–network interface:
// per-packet host involvement, per-cell protocol engines, per-bit hardware.
// See DESIGN.md for the full inventory and the experiment index.
package core

import (
	"fmt"

	"repro/internal/aal"
	"repro/internal/atm"
	"repro/internal/baseline"
	"repro/internal/bus"
	"repro/internal/host"
	"repro/internal/metrics"
	"repro/internal/nic"
	"repro/internal/sim"
	"repro/internal/units"
)

// Re-exported option enums, so callers need only import core.
const (
	// Rate155 selects STS-3c (155.52 Mb/s line, 149.76 payload).
	Rate155 = units.STS3cPayload
	// Rate622 selects STS-12c (622.08 Mb/s line, 599.04 payload).
	Rate622 = units.STS12cPayload
)

// Arch is an endpoint's adapter architecture: the paper's interface or one
// of the two baselines it is argued against (package baseline).
type Arch int

const (
	// Programmable is the paper's interface: per-packet host involvement,
	// per-cell protocol engines (nic.New).
	Programmable Arch = iota
	// Hardwired replaces the programmable engines with fixed-function
	// hardware (baseline.NewHardwired): as fast, and as frozen, as gates.
	Hardwired
	// PerCell is the host-SAR adapter (baseline.NewHostSAR): cell FIFOs
	// and a framer, with the host segmenting, reassembling and taking an
	// interrupt for every cell.
	PerCell
)

// Options configures an endpoint. The zero value selects the board as
// built: STS-3c, AAL5, 25 MHz engines, CAM lookup, paged buffers.
type Options struct {
	// Rate is the link payload rate (Rate155 or Rate622).
	Rate units.BitRate
	// AAL34 selects the AAL3/4 firmware build instead of AAL5.
	AAL34 bool
	// EngineMHz overrides the protocol engines' clock (default 25).
	EngineMHz int
	// TxFifoCells and RxFifoCells override the transmit and receive cell
	// FIFO depths (default 32 each; every receive engine gets its own RX
	// FIFO).
	TxFifoCells int
	RxFifoCells int
	// AdapterSRAM bounds reassembly memory in bytes (default 256 KiB).
	AdapterSRAM int
	// Arch selects the adapter (default Programmable). A PerCell board has
	// no engines, adapter SRAM or fault plane, so it ignores EngineMHz,
	// RxEngines, InterleaveVCs, AdapterSRAM, ReassemblyTimeout,
	// AlarmPeriod and AlarmClearTimeout.
	Arch Arch
	// RxEngines sets the number of parallel receive engines (default 1).
	RxEngines int
	// InterleaveVCs enables multi-VC interleaved segmentation on transmit.
	InterleaveVCs bool
	// ReassemblyTimeout ages out partial frames abandoned by cell loss,
	// reclaiming their adapter buffers (0 = disabled; see nic.Config).
	ReassemblyTimeout sim.Duration
	// AlarmPeriod overrides the fault-management RDI cadence (0 = 1 ms).
	AlarmPeriod sim.Duration
	// AlarmClearTimeout overrides the alarm soak interval (0 = 2.5 ms).
	AlarmClearTimeout sim.Duration
	// HostMIPS overrides the workstation CPU's instruction rate in millions
	// per second (default 25).
	HostMIPS int
}

func (o Options) nicConfig(name string) nic.Config {
	cfg := nic.DefaultConfig(name)
	if o.Rate != 0 {
		cfg.PayloadRate = o.Rate
	}
	if o.AAL34 {
		cfg.AAL = aal.AAL34
	}
	if o.EngineMHz > 0 {
		cfg.Engine.ClockHz = int64(o.EngineMHz) * 1_000_000
	}
	if o.TxFifoCells > 0 {
		cfg.TxFifoDepth = o.TxFifoCells
	}
	if o.RxFifoCells > 0 {
		cfg.RxFifoDepth = o.RxFifoCells
	}
	if o.AdapterSRAM > 0 {
		cfg.AdapterSRAM = o.AdapterSRAM
	}
	cfg.RxEngines = o.RxEngines
	cfg.InterleaveVCs = o.InterleaveVCs
	cfg.ReassemblyTimeout = o.ReassemblyTimeout
	cfg.AlarmPeriod = o.AlarmPeriod
	cfg.AlarmClearTimeout = o.AlarmClearTimeout
	return cfg
}

func (o Options) hostConfig() host.Config {
	cfg := host.DefaultConfig()
	if o.HostMIPS > 0 {
		cfg.InstrRate = int64(o.HostMIPS) * 1_000_000
	}
	return cfg
}

// VC identifies a virtual connection (re-exported from the cell layer).
type VC = atm.VC

// Packet is a received SDU.
type Packet struct {
	VC VC
	// Data is the host's receive buffer, lent to the callback: it is valid
	// until the callback returns, so a receiver that keeps the bytes copies
	// them (see nic.Delivered.SDU). Every Options.Arch follows this rule.
	Data  []byte
	Cells int
	At    sim.Time
}

// Endpoint is one workstation: a host CPU, its I/O bus, and the adapter on
// that bus — the paper's interface, or a baseline board (Options.Arch).
type Endpoint struct {
	name  string
	k     *sim.Kernel
	host  *host.Host
	board board
	iface *nic.Interface // board as the paper's interface; nil on a PerCell endpoint
}

// board is the adapter as the builder and Endpoint drive it: the cell
// conduit a fiber attaches to and the per-SDU host interface.
// *nic.Interface and *baseline.HostSAR implement it.
type board interface {
	atm.CellConduit
	Config() nic.Config
	OpenVC(VC) error
	CloseVC(VC)
	Send(vc VC, sdu []byte, onSent func()) error
	OnReceive(func(nic.Delivered))
	Stats() nic.Stats
}

// newEndpoint builds an endpoint on kernel k: a host with the options' cost
// model, a default bus, and the adapter Options.Arch names, drawing cells
// from pool, the kernel's cell pool. The adapter and the bus devices record
// into reg.
func newEndpoint(k *sim.Kernel, name string, o Options, reg *metrics.Registry, pool *atm.Pool) (*Endpoint, error) {
	cfg := o.nicConfig(name)
	cfg.Metrics = reg
	h := host.New(k, o.hostConfig())
	b := bus.New(k, bus.DefaultConfig())
	b.SetMetrics(reg)
	e := &Endpoint{name: name, k: k, host: h}
	var err error
	switch o.Arch {
	case Programmable:
		e.iface, err = nic.New(k, cfg, h, b, pool)
	case Hardwired:
		e.iface, err = baseline.NewHardwired(k, cfg, h, b, pool)
	case PerCell:
		e.board, err = baseline.NewHostSAR(k, cfg, h, b, pool)
	default:
		err = fmt.Errorf("unknown Arch %d", o.Arch)
	}
	if err != nil {
		return nil, err
	}
	if e.iface != nil {
		e.board = e.iface
	}
	return e, nil
}

// Name returns the endpoint's spec name.
func (e *Endpoint) Name() string { return e.name }

// Interface exposes the endpoint's interface model for stats and tuning. It
// is nil on a PerCell endpoint, whose host-SAR board has none of the
// interface's engines, tables or fault plane.
func (e *Endpoint) Interface() *nic.Interface { return e.iface }

// errPerCell is the error a method that needs the paper's interface returns
// on a PerCell endpoint.
func (e *Endpoint) errPerCell() error {
	return fmt.Errorf("core: endpoint %q is per-cell and has no programmable interface", e.name)
}

// Host exposes the endpoint's host CPU model.
func (e *Endpoint) Host() *host.Host { return e.host }

// Send queues data for transmission on vc. onSent (may be nil) fires when
// the host could reuse the buffer (after the transmit-complete interrupt).
func (e *Endpoint) Send(vc VC, data []byte, onSent func()) error {
	return e.board.Send(vc, data, onSent)
}

// OnReceive registers the delivery callback.
func (e *Endpoint) OnReceive(fn func(Packet)) {
	e.board.OnReceive(func(d nic.Delivered) {
		fn(Packet{VC: d.VC, Data: d.SDU, Cells: d.Cells, At: d.At})
	})
}

// Stats returns the endpoint adapter's counters.
func (e *Endpoint) Stats() nic.Stats { return e.board.Stats() }

// SetPeakCellRate paces a VC's transmit path (see nic.Interface).
func (e *Endpoint) SetPeakCellRate(vc VC, cellsPerSec float64) error {
	if e.iface == nil {
		return e.errPerCell()
	}
	return e.iface.SetPeakCellRate(vc, cellsPerSec)
}

// OnAlarm registers the fault-management handler: AIS/RDI declare and clear
// transitions per VC, LOS per link (see nic.Interface.OnAlarm). A PerCell
// endpoint has no fault plane, so its handler never fires.
func (e *Endpoint) OnAlarm(fn func(nic.AlarmEvent)) {
	if e.iface != nil {
		e.iface.OnAlarm(fn)
	}
}

// Goodput returns delivered SDU bits per second at endpoint e over the
// elapsed simulated time.
func (e *Endpoint) Goodput() float64 {
	return units.ThroughputBps(int64(e.Stats().Rx.Bytes), e.k.Now())
}

// Source is a closed-loop greedy source: Start keeps `window` SDUs in
// flight on one endpoint's VC, each send chained to the previous one's
// transmit-complete, until the deadline.
type Source struct {
	ep       *Endpoint
	vc       VC
	size     int
	deadline sim.Time
	Sent     uint64
}

// NewSource creates a greedy closed-loop source of size-byte SDUs on ep's
// vc. It runs on the endpoint's own kernel, so it lands in the endpoint's
// partition of a sharded build.
func NewSource(ep *Endpoint, vc VC, size int, deadline sim.Time) *Source {
	return &Source{ep: ep, vc: vc, size: size, deadline: deadline}
}

// Start launches `window` chained send loops.
func (s *Source) Start(window int) {
	payload := make([]byte, s.size)
	for i := range payload {
		payload[i] = byte(i)
	}
	var send func()
	send = func() {
		if s.ep.k.Now() > s.deadline {
			return
		}
		if err := s.ep.Send(s.vc, payload, send); err != nil {
			panic("core: source send failed: " + err.Error())
		}
		s.Sent++
	}
	for i := 0; i < window; i++ {
		send()
	}
}
