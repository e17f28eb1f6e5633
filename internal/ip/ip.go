// Package ip carries internet traffic over the ATM testbed: IPv4 datagrams
// wrapped per RFC 2684 (LLC/SNAP or VC-multiplexed) into AAL5 SDUs, and a
// per-endpoint Stack that demultiplexes arriving frames by virtual channel
// to bound protocol handlers. It is the classical-IP-over-ATM shim the
// satellite-ATM TCP studies assume between the transport and the adaptation
// layer: one VC per conversation, one datagram per AAL5 frame, no
// fragmentation (the AAL5 MTU is far above any IP MTU we use).
package ip

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// HeaderSize is the option-less IPv4 header length in bytes.
const HeaderSize = 20

// IP protocol numbers (the Protocol header field).
const (
	ProtoTCP = 6
	ProtoUDP = 17
)

// Errors surfaced by datagram parsing.
var (
	ErrTruncated = errors.New("ip: datagram shorter than its header claims")
	ErrVersion   = errors.New("ip: not an IPv4 datagram")
	ErrChecksum  = errors.New("ip: header checksum mismatch")
	ErrOptions   = errors.New("ip: IHL with options not supported")
)

// Addr is an IPv4 address.
type Addr [4]byte

// String renders dotted-quad.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// Header is an option-less IPv4 header. TotalLen and Checksum are computed
// on marshal; parsed headers carry the wire values.
type Header struct {
	TOS      uint8
	TotalLen uint16
	ID       uint16
	TTL      uint8
	Proto    uint8
	Src, Dst Addr
}

// Marshal writes the header for a payload of the given length into the
// first HeaderSize bytes of dst (which must be at least that long),
// computing TotalLen and the checksum.
func (h *Header) Marshal(dst []byte, payloadLen int) {
	_ = dst[HeaderSize-1]
	ttl := h.TTL
	if ttl == 0 {
		ttl = 64
	}
	dst[0] = 0x45 // version 4, IHL 5
	dst[1] = h.TOS
	binary.BigEndian.PutUint16(dst[2:4], uint16(HeaderSize+payloadLen))
	binary.BigEndian.PutUint16(dst[4:6], h.ID)
	binary.BigEndian.PutUint16(dst[6:8], 0x4000) // DF, no fragments
	dst[8] = ttl
	dst[9] = h.Proto
	dst[10], dst[11] = 0, 0
	copy(dst[12:16], h.Src[:])
	copy(dst[16:20], h.Dst[:])
	binary.BigEndian.PutUint16(dst[10:12], Checksum(dst[:HeaderSize]))
}

// Datagram builds a complete IPv4 datagram around payload: the reference
// the ip, tcp and cellview tests check the stack's in-place datagrams
// against.
func (h *Header) Datagram(payload []byte) []byte {
	d := make([]byte, HeaderSize+len(payload))
	h.Marshal(d, len(payload))
	copy(d[HeaderSize:], payload)
	return d
}

// Parse validates b as an IPv4 datagram and returns its header and payload.
// The payload aliases b (no copy).
func Parse(b []byte) (Header, []byte, error) {
	var h Header
	if len(b) < HeaderSize {
		return h, nil, ErrTruncated
	}
	if b[0]>>4 != 4 {
		return h, nil, ErrVersion
	}
	if b[0]&0x0f != 5 {
		return h, nil, ErrOptions
	}
	if Checksum(b[:HeaderSize]) != 0 {
		return h, nil, ErrChecksum
	}
	h.TOS = b[1]
	h.TotalLen = binary.BigEndian.Uint16(b[2:4])
	h.ID = binary.BigEndian.Uint16(b[4:6])
	h.TTL = b[8]
	h.Proto = b[9]
	copy(h.Src[:], b[12:16])
	copy(h.Dst[:], b[16:20])
	if int(h.TotalLen) < HeaderSize || int(h.TotalLen) > len(b) {
		return h, nil, ErrTruncated
	}
	return h, b[HeaderSize:h.TotalLen], nil
}

// Checksum is the internet checksum (RFC 1071) over b: the 16-bit ones'
// complement of the ones'-complement sum. Over a header whose checksum field
// holds the transmitted value it returns 0 iff the header is intact.
func Checksum(b []byte) uint16 { return ChecksumWith(0, b) }

// PseudoChecksum folds the IPv4 pseudo-header (src, dst, protocol, length)
// into a partial sum for transport checksums (TCP/UDP). Combine with the
// segment bytes via ChecksumWith.
func PseudoChecksum(src, dst Addr, proto uint8, length int) uint32 {
	var sum uint32
	sum += uint32(binary.BigEndian.Uint16(src[0:2]))
	sum += uint32(binary.BigEndian.Uint16(src[2:4]))
	sum += uint32(binary.BigEndian.Uint16(dst[0:2]))
	sum += uint32(binary.BigEndian.Uint16(dst[2:4]))
	sum += uint32(proto)
	sum += uint32(length)
	return sum
}

// ChecksumWith computes the internet checksum of b seeded with a partial
// sum (from PseudoChecksum).
//
// It adds b as big-endian 64-bit words, four per step, carrying each
// word's overflow into the next add. That is the same ones'-complement sum
// as adding 16-bit words (RFC 1071 §2: the sum is independent of byte order
// and can be taken in wider words, because 2^16 ≡ 1 modulo 2^16−1). The
// total folds to 16 bits once, at the end.
func ChecksumWith(seed uint32, b []byte) uint16 {
	sum, c := uint64(seed), uint64(0)
	for len(b) >= 32 {
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(b[0:8]), c)
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(b[8:16]), c)
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(b[16:24]), c)
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(b[24:32]), c)
		b = b[32:]
	}
	for len(b) >= 8 {
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(b), c)
		b = b[8:]
	}
	// At most seven bytes are left. Each piece starts on a 16-bit boundary,
	// and an odd last byte is the high half of a zero-padded pair.
	var tail uint64
	if len(b) >= 4 {
		tail = uint64(binary.BigEndian.Uint32(b))
		b = b[4:]
	}
	if len(b) >= 2 {
		tail += uint64(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		tail += uint64(b[0]) << 8
	}
	sum, c = bits.Add64(sum, tail, c)
	sum, c = bits.Add64(sum, c, 0)
	sum += c
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}
