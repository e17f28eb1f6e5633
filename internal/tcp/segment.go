// Package tcp is a per-flow TCP Reno model riding the IP-over-ATM stack:
// slow start, congestion avoidance, fast retransmit/recovery, and
// Karn/Jacobson retransmission timing, with cumulative ACKs flowing back on
// the reverse direction of the same virtual channel. It exists to put real
// transport dynamics — self-clocking, window growth, loss recovery — on the
// simulated datapath, reproducing the satellite-ATM TCP result set
// (goodput vs switch buffering, tail drop vs EPD/PPD, GEO-delay links).
//
// The model is bulk-transfer only: flows begin established (no SYN
// handshake), data flows one way and ACKs the other, and segment payloads
// are synthetic zeros — what matters is their length, timing and loss, not
// their content. The zeros are the fresh transmit frame's own: each segment
// is written once, in place, into the frame the interface sends
// (ip.Stack.NewDatagram), so no payload is built or copied. Sequence
// numbers, flags, windows and checksums are real and validated end to end.
package tcp

import (
	"encoding/binary"
	"errors"

	"repro/internal/ip"
)

// HeaderSize is the option-less TCP header length in bytes.
const HeaderSize = 20

// windowShift is the implicit window-scale both ends pre-negotiated (as a
// real long-fat-network TCP would via the RFC 7323 option): the wire's
// 16-bit window field counts units of 2^windowShift bytes, reaching the
// multi-hundred-KB windows a GEO path needs.
const windowShift = 6

// MaxWindow is the largest advertisable window in bytes.
const MaxWindow = 0xFFFF << windowShift

// Flags is the TCP flag byte.
type Flags uint8

// Flag bits (the low 6 of the flags byte). The sender and receiver use
// FlagACK alone; the rest complete the code book, and their iota order fixes
// FlagACK's value.
const (
	FlagFIN Flags = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
	FlagURG
)

// Segment is one parsed or to-be-marshalled TCP segment.
type Segment struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            Flags
	// Window is the advertised receive window in bytes (quantized to
	// 2^windowShift on the wire).
	Window  int
	Payload []byte
}

// Parse errors.
var (
	ErrShortSegment = errors.New("tcp: segment shorter than its header")
	ErrChecksum     = errors.New("tcp: checksum mismatch")
)

// Marshal serializes the segment, computing the checksum over the IPv4
// pseudo-header and the full segment. The sender builds its segments in
// place; Marshal is the reference the tcp tests and FuzzParseSegment check
// them against.
func (s *Segment) Marshal(src, dst ip.Addr) []byte {
	b := make([]byte, HeaderSize+len(s.Payload))
	copy(b[HeaderSize:], s.Payload)
	s.putHeader(b, src, dst)
	return b
}

// putHeader writes the header into the first HeaderSize bytes of b, whose
// remaining bytes already hold the payload (s.Payload is not read), and
// checksums the segment where it lies.
func (s *Segment) putHeader(b []byte, src, dst ip.Addr) {
	_ = b[HeaderSize-1]
	binary.BigEndian.PutUint16(b[0:2], s.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], s.DstPort)
	binary.BigEndian.PutUint32(b[4:8], s.Seq)
	binary.BigEndian.PutUint32(b[8:12], s.Ack)
	b[12] = 5 << 4 // data offset: 5 words, no options
	b[13] = byte(s.Flags)
	wnd := s.Window >> windowShift
	if wnd > 0xFFFF {
		wnd = 0xFFFF
	}
	binary.BigEndian.PutUint16(b[14:16], uint16(wnd))
	b[16], b[17] = 0, 0 // checksum placeholder
	b[18], b[19] = 0, 0 // urgent pointer
	ck := ip.ChecksumWith(ip.PseudoChecksum(src, dst, ip.ProtoTCP, len(b)), b)
	binary.BigEndian.PutUint16(b[16:18], ck)
}

// ParseSegment validates b (checksum included) as a TCP segment between the
// given addresses. The payload aliases b.
func ParseSegment(src, dst ip.Addr, b []byte) (Segment, error) {
	var s Segment
	if len(b) < HeaderSize {
		return s, ErrShortSegment
	}
	if ip.ChecksumWith(ip.PseudoChecksum(src, dst, ip.ProtoTCP, len(b)), b) != 0 {
		return s, ErrChecksum
	}
	s.SrcPort = binary.BigEndian.Uint16(b[0:2])
	s.DstPort = binary.BigEndian.Uint16(b[2:4])
	s.Seq = binary.BigEndian.Uint32(b[4:8])
	s.Ack = binary.BigEndian.Uint32(b[8:12])
	off := int(b[12]>>4) * 4
	if off < HeaderSize || off > len(b) {
		return s, ErrShortSegment
	}
	s.Flags = Flags(b[13])
	s.Window = int(binary.BigEndian.Uint16(b[14:16])) << windowShift
	s.Payload = b[off:]
	return s, nil
}

// Sequence-space comparisons (RFC 793 modular arithmetic).
func seqLT(a, b uint32) bool  { return int32(a-b) < 0 }
func seqGT(a, b uint32) bool  { return int32(a-b) > 0 }
func seqGEQ(a, b uint32) bool { return int32(a-b) >= 0 }
