package ip

import (
	"fmt"

	"repro/internal/atm"
	"repro/internal/nic"
	"repro/internal/sim"
)

// Handler consumes one validated IPv4 datagram delivered on a bound VC.
// payload aliases the interface's receive buffer, which the host owns (see
// nic.Delivered.SDU): a handler may keep it without copying.
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
// AAL5 frame via the interface's zero-copy send path.
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

// Method returns the stack's RFC 2684 encapsulation method.
func (s *Stack) Method() Method { return s.method }

// Interface exposes the underlying NIC.
func (s *Stack) Interface() *nic.Interface { return s.iface }

// Stats returns the stack's counters.
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

// Unbind removes vc's handler; subsequent frames on it count as NoHandler.
func (s *Stack) Unbind(vc atm.VC) { delete(s.bindVCs, vc) }

// Send transmits one datagram on vc: proto/dst fill the IPv4 header (src is
// the stack's address), payload becomes the IP payload, and the whole
// datagram is RFC 2684-encapsulated into a single AAL5 frame. onSent (may
// be nil) fires at the transmit-complete interrupt, when the buffer is
// reusable.
func (s *Stack) Send(vc atm.VC, proto uint8, dst Addr, payload []byte, onSent func()) error {
	if len(payload) > s.MTU() {
		return fmt.Errorf("ip: payload %d exceeds MTU %d", len(payload), s.MTU())
	}
	oh := s.method.Overhead()
	sdu := make([]byte, oh+HeaderSize+len(payload))
	if oh > 0 {
		copy(sdu, llcSnapPrefix[:])
		sdu[6] = byte(EtherTypeIPv4 >> 8)
		sdu[7] = byte(EtherTypeIPv4 & 0xff)
	}
	s.id++
	h := Header{ID: s.id, Proto: proto, Src: s.addr, Dst: dst}
	h.Marshal(sdu[oh:], len(payload))
	copy(sdu[oh+HeaderSize:], payload)
	// The stack built (and owns) the SDU, so the interface's zero-copy
	// path applies: the buffer is the DMA source until onSent.
	if err := s.iface.SendOwned(vc, sdu, onSent); err != nil {
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
