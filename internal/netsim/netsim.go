// Package netsim holds the network-level building blocks: the station
// (host + bus + interface), the output-queued ATM switch with its traffic
// management, the per-cell baseline station, and the closed-loop traffic
// source. core.NewNetwork assembles them into topologies.
package netsim

import (
	"repro/internal/atm"
	"repro/internal/baseline"
	"repro/internal/bus"
	"repro/internal/host"
	"repro/internal/nic"
	"repro/internal/phy"
	"repro/internal/sim"
)

// Station is one workstation with the paper's interface installed.
type Station struct {
	Name  string
	Host  *host.Host
	Bus   *bus.Bus
	Iface *nic.Interface
}

// NewStation builds a station: a host with the given cost model, a default
// bus, and the paper's programmable interface — or, when hardwired is set,
// the fixed-function baseline (baseline.NewHardwired) — drawing cells from
// pool, the kernel's cell pool. When the interface config carries a
// telemetry registry, the station's bus devices record into it too.
func NewStation(k *sim.Kernel, cfg nic.Config, hostCfg host.Config, hardwired bool, pool *atm.Pool) (*Station, error) {
	h := host.New(k, hostCfg)
	b := bus.New(k, bus.DefaultConfig())
	if cfg.Metrics != nil {
		b.SetMetrics(cfg.Metrics)
	}
	newIface := nic.New
	if hardwired {
		newIface = baseline.NewHardwired
	}
	iface, err := newIface(k, cfg, h, b, pool)
	if err != nil {
		return nil, err
	}
	return &Station{Name: cfg.Name, Host: h, Bus: b, Iface: iface}, nil
}

// LinkConfig sets the properties of a baseline pair's fiber (ConnectBaseline).
type LinkConfig struct {
	Delay    sim.Duration
	LossProb float64
	Seed     uint64
}

// BaselineStation is a workstation with the per-cell-interrupt adapter.
type BaselineStation struct {
	Name    string
	Host    *host.Host
	Bus     *bus.Bus
	Adapter *baseline.HostSAR
}

// NewBaselineStation builds the per-cell baseline station.
func NewBaselineStation(k *sim.Kernel, name string, cfg baseline.Config) *BaselineStation {
	h := host.New(k, host.DefaultConfig())
	b := bus.New(k, bus.DefaultConfig())
	return &BaselineStation{Name: name, Host: h, Bus: b,
		Adapter: baseline.NewHostSAR(k, cfg, h, b)}
}

// ConnectBaseline wires two baseline stations together.
func ConnectBaseline(k *sim.Kernel, a, b *BaselineStation, cfg LinkConfig) (ab, ba *phy.CellLink) {
	ab = phy.NewCellLink(k, cfg.Delay, cfg.Seed*2+1, b.Adapter, a.Adapter.Pool())
	ab.LossProb = cfg.LossProb
	ba = phy.NewCellLink(k, cfg.Delay, cfg.Seed*2+2, a.Adapter, b.Adapter.Pool())
	ba.LossProb = cfg.LossProb
	a.Adapter.AttachSink(ab)
	b.Adapter.AttachSink(ba)
	return ab, ba
}

// pump drives a closed-loop greedy source: keep `window` packets in flight
// on vc until deadline.
type Source struct {
	k        *sim.Kernel
	station  *Station
	vc       atm.VC
	size     int
	deadline sim.Time
	Sent     uint64
}

// NewSource creates a greedy closed-loop source on a station.
func NewSource(k *sim.Kernel, s *Station, vc atm.VC, size int, deadline sim.Time) *Source {
	return &Source{k: k, station: s, vc: vc, size: size, deadline: deadline}
}

// Start launches `window` chained send loops.
func (s *Source) Start(window int) {
	payload := make([]byte, s.size)
	for i := range payload {
		payload[i] = byte(i)
	}
	var send func()
	send = func() {
		if s.k.Now() > s.deadline {
			return
		}
		if err := s.station.Iface.Send(s.vc, payload, send); err != nil {
			panic("netsim: source send failed: " + err.Error())
		}
		s.Sent++
	}
	for i := 0; i < window; i++ {
		send()
	}
}
