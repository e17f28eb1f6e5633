// Package netsim holds the network-level building blocks: the
// output-queued ATM switch with its traffic management, the per-cell
// baseline station, and the closed-loop traffic source. core.NewNetwork
// assembles them, with its endpoints, into topologies.
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

// Source is a closed-loop greedy source: Start keeps `window` packets in
// flight on vc, each send chained to the previous one's transmit-complete,
// until deadline.
type Source struct {
	k        *sim.Kernel
	iface    *nic.Interface
	vc       atm.VC
	size     int
	deadline sim.Time
	Sent     uint64
}

// NewSource creates a greedy closed-loop source on an interface.
func NewSource(k *sim.Kernel, iface *nic.Interface, vc atm.VC, size int, deadline sim.Time) *Source {
	return &Source{k: k, iface: iface, vc: vc, size: size, deadline: deadline}
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
		if err := s.iface.Send(s.vc, payload, send); err != nil {
			panic("netsim: source send failed: " + err.Error())
		}
		s.Sent++
	}
	for i := 0; i < window; i++ {
		send()
	}
}
