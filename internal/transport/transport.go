// Package transport is the layer the paper leaves to the host: a reliable
// transport running on the workstation CPU above the interface's AAL
// service. It is a deliberately simple go-back-N protocol — enough to
// demonstrate the architecture's division of labor end to end (the adapter
// never retransmits; cell loss surfaces as a missing AAL frame, and the
// HOST recovers it) and to measure what loss does to a window protocol over
// ATM, the phenomenon that motivated the era's reliable-transport work.
//
// Framing (all big-endian), carried as the first bytes of each AAL SDU:
//
//	DATA: type=1 (1) | msg id (1) | seq (4) | message length (4) | payload
//	ACK:  type=2 (1) | msg id (1) | cumulative next-expected seq (4)
//	      [+ selective bitmap (4): bit i = segment cum+1+i received]
//
// Two retransmission disciplines are provided, the era's standing debate:
// go-back-N (tiny receiver state, resends whole windows) and selective
// repeat (receiver buffers out of order, sender resends only holes). The
// ablation benchmark quantifies the difference under cell loss.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/atm"
	"repro/internal/nic"
	"repro/internal/sim"
)

const (
	typeData = 1
	typeAck  = 2
	// DataHeaderSize and AckSize are the wire sizes (an ACK may carry a
	// 4-byte selective bitmap beyond AckSize).
	DataHeaderSize = 10
	AckSize        = 6
	ackSRSize      = 10
)

// Config tunes the protocol.
type Config struct {
	// Window is the maximum unacknowledged segments in flight.
	Window int
	// SegmentSize is the maximum payload bytes per segment.
	SegmentSize int
	// RTO is the retransmission timeout for the oldest unacked segment.
	RTO sim.Duration
	// MaxRetries bounds consecutive timeouts before the connection fails.
	MaxRetries int
	// SelectiveRepeat switches both ends from go-back-N to selective
	// repeat (set it on the sender's Config and the receiver's field).
	SelectiveRepeat bool
}

// DefaultConfig is sized for the testbed: 8 segments of 8 KiB, 10 ms RTO.
func DefaultConfig() Config {
	return Config{Window: 8, SegmentSize: 8192, RTO: 10 * sim.Millisecond, MaxRetries: 8}
}

// Errors.
var (
	ErrTooManyRetries = errors.New("transport: retries exhausted")
	ErrBusy           = errors.New("transport: a message is already in flight")
	ErrClosed         = errors.New("transport: connection failed")
	ErrSDUTooLarge    = errors.New("transport: segment would exceed the interface's MaxSDU")
)

// Stats counts protocol events on the sending side.
type Stats struct {
	Segments    uint64 // first transmissions
	Retransmits uint64
	Timeouts    uint64
	AcksSeen    uint64
}

// Sender transmits messages reliably over one VC of an interface. ACKs
// arrive on the reverse direction of the same VC: wire the interface's
// receive path for this VC to HandleAck.
type Sender struct {
	k     *sim.Kernel
	iface *nic.Interface
	vc    atm.VC
	cfg   Config

	msgID    uint8
	segments [][]byte
	frame    []byte // scratch DATA frame; Interface.Send copies it
	base     uint32 // oldest unacked
	next     uint32 // next never-sent
	sacked   map[uint32]bool
	total    uint32
	msgLen   uint32
	timer    *sim.Event
	retries  int
	onDone   func(err error)
	inFlight bool
	closed   bool
	stats    Stats
}

// NewSender builds a sender for vc on iface.
func NewSender(k *sim.Kernel, iface *nic.Interface, vc atm.VC, cfg Config) *Sender {
	if cfg.Window <= 0 || cfg.SegmentSize <= 0 || cfg.RTO <= 0 {
		panic("transport: invalid config")
	}
	return &Sender{k: k, iface: iface, vc: vc, cfg: cfg}
}

// Stats returns the sender's counters.
func (s *Sender) Stats() Stats { return s.stats }

// Send transmits one message reliably; onDone fires with nil when the whole
// message is acknowledged, or with an error when retries are exhausted.
// One message at a time (this example transport has no stream multiplexing).
func (s *Sender) Send(msg []byte, onDone func(err error)) error {
	if s.closed {
		return ErrClosed
	}
	if s.inFlight {
		return ErrBusy
	}
	if len(msg) == 0 {
		return fmt.Errorf("transport: empty message")
	}
	// Reject up front what the interface would refuse cell by cell: the
	// largest frame this message produces must fit the adaptation layer's
	// SDU bound, or the mid-message iface.Send failure would be fatal.
	seg := s.cfg.SegmentSize
	if len(msg) < seg {
		seg = len(msg)
	}
	if max := s.iface.Config().MaxSDU; DataHeaderSize+seg > max {
		return fmt.Errorf("%w: header %d + segment %d > MaxSDU %d",
			ErrSDUTooLarge, DataHeaderSize, seg, max)
	}
	s.msgID++
	s.segments = s.segments[:0]
	for off := 0; off < len(msg); off += s.cfg.SegmentSize {
		end := off + s.cfg.SegmentSize
		if end > len(msg) {
			end = len(msg)
		}
		s.segments = append(s.segments, msg[off:end])
	}
	s.base, s.next = 0, 0
	s.sacked = make(map[uint32]bool)
	s.total = uint32(len(s.segments))
	s.msgLen = uint32(len(msg))
	s.retries = 0
	s.onDone = onDone
	s.inFlight = true
	s.pump()
	return nil
}

// pump sends segments up to the window and (re)arms the timer.
func (s *Sender) pump() {
	for s.next < s.total && s.next < s.base+uint32(s.cfg.Window) {
		s.sendSegment(s.next, false)
		s.next++
	}
	s.armTimer()
}

func (s *Sender) sendSegment(seq uint32, retransmit bool) {
	payload := s.segments[seq]
	n := DataHeaderSize + len(payload)
	if cap(s.frame) < n {
		s.frame = make([]byte, n)
	}
	buf := s.frame[:n]
	buf[0] = typeData
	buf[1] = s.msgID
	binary.BigEndian.PutUint32(buf[2:6], seq)
	binary.BigEndian.PutUint32(buf[6:10], s.msgLen)
	copy(buf[DataHeaderSize:], payload)
	if retransmit {
		s.stats.Retransmits++
	} else {
		s.stats.Segments++
	}
	if err := s.iface.Send(s.vc, buf, nil); err != nil {
		panic("transport: interface send failed: " + err.Error())
	}
}

func (s *Sender) armTimer() {
	s.k.Cancel(s.timer)
	s.timer = nil
	if !s.inFlight {
		return
	}
	s.timer = s.k.After(s.cfg.RTO, s.timeout)
}

// timeout resends what the discipline requires: everything outstanding
// under go-back-N, only unacknowledged holes under selective repeat.
func (s *Sender) timeout() {
	s.timer = nil
	if !s.inFlight {
		return
	}
	s.stats.Timeouts++
	s.retries++
	if s.retries > s.cfg.MaxRetries {
		s.fail(ErrTooManyRetries)
		return
	}
	for seq := s.base; seq < s.next; seq++ {
		if s.cfg.SelectiveRepeat && s.sacked[seq] {
			continue
		}
		s.sendSegment(seq, true)
	}
	s.armTimer()
}

func (s *Sender) fail(err error) {
	s.inFlight = false
	s.closed = true
	s.k.Cancel(s.timer)
	s.timer = nil
	if s.onDone != nil {
		s.onDone(err)
	}
}

// HandleAck processes an SDU from the reverse direction; non-ACK or
// stale-message SDUs are ignored.
func (s *Sender) HandleAck(sdu []byte) {
	if len(sdu) < AckSize || sdu[0] != typeAck || !s.inFlight {
		return
	}
	if sdu[1] != s.msgID {
		return
	}
	s.stats.AcksSeen++
	ackNext := binary.BigEndian.Uint32(sdu[2:6])
	if s.cfg.SelectiveRepeat && len(sdu) >= ackSRSize {
		bitmap := binary.BigEndian.Uint32(sdu[6:10])
		for i := uint32(0); i < 32; i++ {
			if bitmap&(1<<i) != 0 {
				s.sacked[ackNext+1+i] = true
			}
		}
	}
	if ackNext > s.total {
		return
	}
	if ackNext <= s.base {
		return
	}
	for seq := s.base; seq < ackNext; seq++ {
		delete(s.sacked, seq)
	}
	s.base = ackNext
	s.retries = 0
	if s.base == s.total {
		s.inFlight = false
		s.k.Cancel(s.timer)
		s.timer = nil
		if s.onDone != nil {
			s.onDone(nil)
		}
		return
	}
	s.pump()
}

// Receiver accepts DATA segments in order, acknowledges cumulatively, and
// delivers completed messages.
type Receiver struct {
	// SelectiveRepeat buffers out-of-order segments and advertises them
	// in a bitmap, instead of discarding them (set to match the sender).
	SelectiveRepeat bool

	iface     *nic.Interface
	vc        atm.VC
	msgID     uint8
	started   bool
	expect    uint32
	buf       []byte
	ooo       map[uint32][]byte // out-of-order hold (selective repeat)
	msgLen    uint32
	onMessage func([]byte)
	ack       [ackSRSize]byte // scratch ACK frame; Interface.Send copies it

	// Completion memory, so a lost final ACK can be regenerated when the
	// sender retransmits the tail of an already-delivered message.
	lastID      uint8
	lastAckNext uint32
	haveLast    bool

	// DupSegments counts retransmissions of already-received data — the
	// bandwidth go-back-N wastes, visible in the loss tests.
	DupSegments uint64
}

// NewReceiver builds a receiver that sends ACKs back on vc via iface.
func NewReceiver(iface *nic.Interface, vc atm.VC, onMessage func([]byte)) *Receiver {
	return &Receiver{iface: iface, vc: vc, onMessage: onMessage}
}

// HandleData processes an arriving SDU. Out-of-order segments are discarded
// (go-back-N receivers keep no reassembly state beyond a cursor) and the
// cumulative ACK reasserted so the sender backs up.
func (r *Receiver) HandleData(sdu []byte) {
	if len(sdu) < DataHeaderSize || sdu[0] != typeData {
		return
	}
	id := sdu[1]
	seq := binary.BigEndian.Uint32(sdu[2:6])
	msgLen := binary.BigEndian.Uint32(sdu[6:10])

	if !r.started || id != r.msgID {
		// Any segment of a message we already delivered (its final ACK
		// was lost) must only regenerate the ACK — never re-deliver.
		if r.haveLast && id == r.lastID {
			r.DupSegments++
			r.ackRaw(id, r.lastAckNext)
			return
		}
		// A new message begins only at segment 0; mid-message strays
		// from an unknown message are dropped (the sender will fail or
		// restart from 0).
		if seq != 0 {
			return
		}
		r.msgID = id
		r.started = true
		r.expect = 0
		r.buf = r.buf[:0]
		r.ooo = nil
		r.msgLen = msgLen
	}

	switch {
	case seq == r.expect:
		r.buf = append(r.buf, sdu[DataHeaderSize:]...)
		r.expect++
		// Drain any buffered successors (selective repeat).
		for r.ooo != nil {
			p, ok := r.ooo[r.expect]
			if !ok {
				break
			}
			delete(r.ooo, r.expect)
			r.buf = append(r.buf, p...)
			r.expect++
		}
		if uint32(len(r.buf)) >= r.msgLen {
			msg := make([]byte, r.msgLen)
			copy(msg, r.buf)
			r.ackRaw(r.msgID, r.expect)
			r.lastID, r.lastAckNext, r.haveLast = r.msgID, r.expect, true
			r.started = false // next message must begin at seq 0
			r.ooo = nil
			if r.onMessage != nil {
				r.onMessage(msg)
			}
			return
		}
	case seq < r.expect:
		r.DupSegments++
	default:
		if r.SelectiveRepeat {
			if r.ooo == nil {
				r.ooo = make(map[uint32][]byte)
			}
			if _, dup := r.ooo[seq]; dup {
				r.DupSegments++
			} else if seq <= r.expect+32 { // bitmap reach
				p := make([]byte, len(sdu)-DataHeaderSize)
				copy(p, sdu[DataHeaderSize:])
				r.ooo[seq] = p
			}
		}
		// Go-back-N: drop, reassert cursor below.
	}
	r.ackRaw(r.msgID, r.expect)
}

func (r *Receiver) ackRaw(id uint8, next uint32) {
	size := AckSize
	if r.SelectiveRepeat {
		size = ackSRSize
	}
	buf := r.ack[:size]
	buf[0] = typeAck
	buf[1] = id
	binary.BigEndian.PutUint32(buf[2:6], next)
	if r.SelectiveRepeat {
		var bitmap uint32
		for seq := range r.ooo {
			if seq > next && seq <= next+32 {
				bitmap |= 1 << (seq - next - 1)
			}
		}
		binary.BigEndian.PutUint32(buf[6:10], bitmap)
	}
	r.iface.Send(r.vc, buf, nil)
}
