package tcp

import (
	"repro/internal/atm"
	"repro/internal/ip"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// ReceiverStats counts the receive-side events of one flow.
type ReceiverStats struct {
	Segments       uint64 // data segments processed
	DupSegments    uint64 // entirely below rcvNxt (already delivered)
	OOOSegments    uint64 // buffered above a hole
	AcksSent       uint64 // the "tcp.<flow>.acks_sent" counter
	DeliveredBytes uint64 // in-order bytes handed "up"
}

// Receiver is the consuming half of a flow: it acknowledges cumulatively
// and immediately (no delayed ACKs — the satellite studies' configuration,
// which also maximizes the ACK clock on long-delay paths). Out-of-order
// segments are buffered by sequence range; payload content is synthetic, so
// only the ranges are kept.
type Receiver struct {
	stack *ip.Stack
	vc    atm.VC
	peer  ip.Addr

	srcPort, dstPort uint16

	rcvNxt uint32
	window int
	ooo    map[uint32]int // buffered seq -> length

	// The counts without a registry name; AcksSent lives in cAcks.
	stats ReceiverStats
	cAcks *metrics.Counter
}

// newReceiver builds flow name's receiving end on stack's vc, sending ACKs
// back to peer and counting into the stack's interface registry. window is
// the advertised receive window in bytes.
func newReceiver(name string, stack *ip.Stack, vc atm.VC, peer ip.Addr,
	srcPort, dstPort uint16, window int) *Receiver {
	if window > MaxWindow {
		window = MaxWindow
	}
	return &Receiver{
		stack: stack, vc: vc, peer: peer,
		srcPort: srcPort, dstPort: dstPort,
		rcvNxt: iss, window: window,
		ooo:   make(map[uint32]int),
		cAcks: stack.Interface().Metrics().Counter("tcp." + name + ".acks_sent"),
	}
}

// Stats returns the receiver's counters. No program reads them (flows
// report through the registry); the flow tests do.
func (r *Receiver) Stats() ReceiverStats {
	st := r.stats
	st.AcksSent = r.cAcks.Value()
	return st
}

// Delivered returns the in-order bytes received so far.
func (r *Receiver) Delivered() uint64 { return r.stats.DeliveredBytes }

// HandleSegment processes one data segment arriving on the receiver's VC.
// Flow binds this to the IP stack.
func (r *Receiver) HandleSegment(h ip.Header, payload []byte, at sim.Time) {
	seg, err := ParseSegment(h.Src, h.Dst, payload)
	if err != nil || len(seg.Payload) == 0 {
		return
	}
	r.stats.Segments++
	seq, n := seg.Seq, len(seg.Payload)
	end := seq + uint32(n)
	switch {
	case seqGEQ(r.rcvNxt, end):
		// Entirely old — a retransmission of delivered data. Re-ACK so the
		// sender's duplicate-ACK machinery sees it.
		r.stats.DupSegments++
	case seqGT(seq, r.rcvNxt):
		// Above a hole: buffer (idempotently) and send a duplicate ACK.
		if _, ok := r.ooo[seq]; !ok {
			r.ooo[seq] = n
		}
		r.stats.OOOSegments++
	default:
		// Advances the left edge (possibly with old overlap).
		r.deliverTo(end)
		// Drain any buffered segments now contiguous.
		for {
			adv := false
			for s2, n2 := range r.ooo {
				e2 := s2 + uint32(n2)
				if seqGEQ(r.rcvNxt, s2) {
					delete(r.ooo, s2)
					if seqGT(e2, r.rcvNxt) {
						r.deliverTo(e2)
					}
					adv = true
				}
			}
			if !adv {
				break
			}
		}
	}
	r.sendAck()
}

func (r *Receiver) deliverTo(end uint32) {
	r.stats.DeliveredBytes += uint64(end - r.rcvNxt)
	r.rcvNxt = end
}

func (r *Receiver) sendAck() {
	seg := Segment{
		SrcPort: r.srcPort, DstPort: r.dstPort,
		Seq: 1, Ack: r.rcvNxt, Flags: FlagACK, Window: r.window,
	}
	sdu, b := r.stack.NewDatagram(HeaderSize)
	seg.putHeader(b, r.stack.Addr(), r.peer)
	if err := r.stack.SendDatagram(r.vc, ip.ProtoTCP, r.peer, sdu, nil); err != nil {
		return // reverse path gone; the sender's RTO covers it
	}
	r.cAcks.Inc()
}
