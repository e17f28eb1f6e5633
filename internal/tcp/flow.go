package tcp

import (
	"repro/internal/atm"
	"repro/internal/ip"
	"repro/internal/sim"
)

// Flow ties a Sender and Receiver together over one duplex virtual channel:
// data segments ride the forward direction, cumulative ACKs the reverse.
// Both ends bind onto their endpoint's IP stack; many flows can share a
// stack as long as each uses its own VC.
type Flow struct {
	Name     string
	Sender   *Sender
	Receiver *Receiver
}

// NewFlow builds a flow named name sending from sndStack (on sndVC) to
// rcvStack (on rcvVC). The VCs must be open on their interfaces and routed
// toward each other — under core.NewNetwork that is one Duplex VCC, with
// sndVC/rcvVC its per-endpoint VC numbers.
//
// The MSS is capped at the smaller stack's MTU less the TCP header, so
// every segment fits one datagram.
//
// Each half counts under "tcp.<name>." in its own stack's interface
// registry, which on a sharded network is the registry of the partition
// the half runs in. The sender's cwnd and ssthresh gauges are what a
// periodic trace.Sampler turns into congestion-window traces.
func NewFlow(k *sim.Kernel, name string, sndStack *ip.Stack, sndVC atm.VC,
	rcvStack *ip.Stack, rcvVC atm.VC, cfg Config) *Flow {
	cfg = cfg.withDefaults()
	cfg.MSS = min(cfg.MSS, sndStack.MTU()-HeaderSize, rcvStack.MTU()-HeaderSize)
	// Ports are cosmetic (one flow per VC); derive stable ones from nothing.
	const dataPort, ackPort = 5001, 34000
	f := &Flow{Name: name}
	f.Sender = newSender(k, name, sndStack, sndVC, rcvStack.Addr(), ackPort, dataPort, cfg)
	f.Receiver = newReceiver(name, rcvStack, rcvVC, sndStack.Addr(), dataPort, ackPort, cfg.RcvWnd)
	sndStack.Bind(sndVC, f.Sender.HandleSegment)
	rcvStack.Bind(rcvVC, f.Receiver.HandleSegment)
	return f
}

// Start begins the transfer: totalBytes bounds it (0 = unbounded, run until
// Stop). onDone (may be nil) fires when the last byte is acknowledged.
func (f *Flow) Start(totalBytes uint64, onDone func()) {
	f.Sender.Start(totalBytes, onDone)
}

// Stop quiesces the sender so the kernel can drain in-flight events.
func (f *Flow) Stop() { f.Sender.Stop() }

// Done reports whether a bounded transfer has completed.
func (f *Flow) Done() bool { return f.Sender.Done() }

// Delivered returns the in-order bytes the receiver has accepted.
func (f *Flow) Delivered() uint64 { return f.Receiver.Delivered() }
