package ip

import (
	"fmt"

	"repro/internal/atm"
	"repro/internal/bufpool"
	"repro/internal/nic"
	"repro/internal/sim"
)

// Handler consumes one validated IPv4 datagram delivered on a bound VC.
// payload aliases the interface's receive buffer, which is lent to the
// handler and valid only until it returns (see nic.Delivered.SDU): a handler
// that keeps the bytes copies them.
type Handler func(h Header, payload []byte, at sim.Time)

// StackStats counts the stack's datapath events.
type StackStats struct {
	TxDatagrams  uint64
	RxDatagrams  uint64
	HeaderErrors uint64 // bad version/IHL/checksum/length
	EncapErrors  uint64 // SDU without the expected RFC 2684 header
	NoHandler    uint64 // frames on a VC nothing is bound to
	NonIP        uint64 // LLC/SNAP frames carrying another EtherType
}

// Stack is one endpoint's IP-over-ATM layer: it owns the interface's
// delivery callback, demultiplexes arriving AAL5 frames by VC, strips the
// RFC 2684 encapsulation, validates the IPv4 header, and hands the payload
// to the handler bound on that VC. Transmit is the mirror: one datagram per
// AAL5 frame, built in place (NewDatagram, SendDatagram) in a frame from the
// stack's pool, lent to the interface's zero-copy send path and recycled at
// its transmit-complete interrupt.
//
// Exactly one Stack should exist per interface (it registers OnReceive);
// any number of VCs may be bound on it.
type Stack struct {
	iface   *nic.Interface
	method  Method
	addr    Addr
	bindVCs map[atm.VC]Handler
	id      uint16
	stats   StackStats

	// frames recycles datagram frames. The stack keeps its own pool, never
	// instrumented, rather than drawing from the interface's: the
	// interface's "nic.bufpool.*" counters count Send's copies alone.
	frames bufpool.Pool
	// freeSends holds retired send records; the list grows on demand.
	freeSends *dgramSend
}

// dgramSend is one datagram on its way out, from SendDatagram to the
// transmit-complete interrupt, where its frame returns to the pool.
type dgramSend struct {
	s      *Stack
	frame  []byte
	onSent func()
	sentFn func() // bound sent, the interface's onSent
	next   *dgramSend
}

// sent runs at the transmit-complete interrupt: the frame goes back to the
// pool and the record to the free list before the caller's onSent runs.
func (d *dgramSend) sent() {
	onSent := d.onSent
	d.s.frames.Put(d.frame)
	d.retire()
	if onSent != nil {
		onSent()
	}
}

func (d *dgramSend) retire() {
	d.frame, d.onSent = nil, nil
	d.next = d.s.freeSends
	d.s.freeSends = d
}

// NewStack attaches a stack to iface with the given encapsulation method
// and local address, taking over the interface's OnReceive callback.
func NewStack(iface *nic.Interface, method Method, addr Addr) *Stack {
	s := &Stack{iface: iface, method: method, addr: addr,
		bindVCs: make(map[atm.VC]Handler)}
	iface.OnReceive(s.deliver)
	return s
}

// Addr returns the stack's local address.
func (s *Stack) Addr() Addr { return s.addr }

// Interface exposes the underlying NIC.
func (s *Stack) Interface() *nic.Interface { return s.iface }

// Stats returns the stack's counters. No program reads them; the ip and tcp
// tests do.
func (s *Stack) Stats() StackStats { return s.stats }

// MTU returns the largest IP payload one AAL5 frame can carry after the
// encapsulation and IPv4 headers.
func (s *Stack) MTU() int {
	return s.iface.Config().MaxSDU - s.method.Overhead() - HeaderSize
}

// Bind routes datagrams arriving on vc to fn (replacing any prior binding).
// The VC must already be open on the interface.
func (s *Stack) Bind(vc atm.VC, fn Handler) {
	if fn == nil {
		panic("ip: nil handler")
	}
	s.bindVCs[vc] = fn
}

// NewDatagram returns a zeroed frame for an n-byte IP payload and the
// payload's place in it. The frame leaves room at its front for the RFC
// 2684 and IPv4 headers, which SendDatagram writes; the caller builds the
// payload where it lies, so the datagram is never copied on its way to the
// interface. The frame comes from the stack's pool, where an earlier
// datagram's frame returns once it is sent.
func (s *Stack) NewDatagram(n int) (sdu, payload []byte) {
	off := s.method.Overhead() + HeaderSize
	sdu = s.frames.Get(off + n)
	clear(sdu)
	return sdu, sdu[off:]
}

// SendDatagram transmits one frame from NewDatagram on vc: it writes the
// RFC 2684 header and the IPv4 header (proto and dst, with the stack's
// address as src) in place, and lends the frame to the interface's
// zero-copy path. The frame then belongs to the stack: it returns to the
// pool at the transmit-complete interrupt, just before onSent (may be nil)
// fires, and the caller must not touch it after a successful send. A frame
// whose descriptor CloseVC drops never fires onSent and is never handed
// out again. A frame SendDatagram refuses stays the caller's.
func (s *Stack) SendDatagram(vc atm.VC, proto uint8, dst Addr, sdu []byte, onSent func()) error {
	oh := s.method.Overhead()
	n := len(sdu) - oh - HeaderSize
	if n < 0 {
		return fmt.Errorf("ip: %d-byte frame has no room for its headers", len(sdu))
	}
	if n > s.MTU() {
		return fmt.Errorf("ip: payload %d exceeds MTU %d", n, s.MTU())
	}
	if oh > 0 {
		putLLCSnap(sdu, EtherTypeIPv4)
	}
	s.id++
	h := Header{ID: s.id, Proto: proto, Src: s.addr, Dst: dst}
	h.Marshal(sdu[oh:], n)
	d := s.freeSends
	if d == nil {
		d = &dgramSend{s: s}
		d.sentFn = d.sent
	} else {
		s.freeSends = d.next
		d.next = nil
	}
	d.frame, d.onSent = sdu, onSent
	if err := s.iface.SendOwned(vc, sdu, d.sentFn); err != nil {
		d.retire()
		return err
	}
	s.stats.TxDatagrams++
	return nil
}

// deliver is the interface's OnReceive callback: demux, decap, validate,
// dispatch.
func (s *Stack) deliver(d nic.Delivered) {
	fn := s.bindVCs[d.VC]
	if fn == nil {
		s.stats.NoHandler++
		return
	}
	et, pdu, err := Decapsulate(s.method, d.SDU)
	if err != nil {
		s.stats.EncapErrors++
		return
	}
	if et != EtherTypeIPv4 {
		s.stats.NonIP++
		return
	}
	h, payload, err := Parse(pdu)
	if err != nil {
		s.stats.HeaderErrors++
		return
	}
	s.stats.RxDatagrams++
	fn(h, payload, d.At)
}
