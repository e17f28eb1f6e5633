package ip

import "errors"

// Method selects the RFC 2684 multiprotocol encapsulation carried in each
// AAL5 SDU.
type Method uint8

const (
	// LLCSnap prefixes every datagram with the 8-byte LLC/SNAP header
	// (AA-AA-03, OUI 00-00-00, EtherType), letting one VC carry several
	// protocols. This is the RFC 2684 default and what the satellite-ATM
	// testbeds ran.
	LLCSnap Method = iota
	// VCMux carries the bare datagram: the protocol is implied by the VC
	// itself (one protocol per VC, zero header overhead).
	VCMux
)

// String names the method as RFC 2684 does.
func (m Method) String() string {
	if m == VCMux {
		return "vc-mux"
	}
	return "llc/snap"
}

// Overhead returns the encapsulation bytes added per datagram.
func (m Method) Overhead() int {
	if m == VCMux {
		return 0
	}
	return LLCSnapSize
}

// LLCSnapSize is the LLC/SNAP routed-PDU header length: LLC (3) + OUI (3) +
// EtherType (2).
const LLCSnapSize = 8

// EtherTypes carried in the SNAP header.
const (
	EtherTypeIPv4 = 0x0800
	EtherTypeARP  = 0x0806
	EtherTypeIPv6 = 0x86DD
)

// Encapsulation errors.
var (
	ErrNotLLCSnap = errors.New("ip: payload does not start with an LLC/SNAP routed-PDU header")
	ErrShortEncap = errors.New("ip: payload shorter than its encapsulation header")
)

// llcSnapPrefix is the fixed LLC+OUI portion for routed (non-ISO) PDUs:
// DSAP AA, SSAP AA, control 03 (UI), OUI 00-00-00.
var llcSnapPrefix = [6]byte{0xAA, 0xAA, 0x03, 0x00, 0x00, 0x00}

// Encapsulate wraps one datagram for transmission as an AAL5 SDU. LLCSnap
// copies into a fresh buffer with the 8-byte header; VCMux returns the
// datagram unchanged (zero copy). The stack writes the header in place;
// Encapsulate is the reference the ip, tcp and cellview tests check it
// against.
func Encapsulate(m Method, etherType uint16, dgram []byte) []byte {
	if m == VCMux {
		return dgram
	}
	sdu := make([]byte, LLCSnapSize+len(dgram))
	putLLCSnap(sdu, etherType)
	copy(sdu[LLCSnapSize:], dgram)
	return sdu
}

// putLLCSnap writes the LLC/SNAP routed-PDU header for etherType into the
// first LLCSnapSize bytes of b.
func putLLCSnap(b []byte, etherType uint16) {
	copy(b, llcSnapPrefix[:])
	b[6] = byte(etherType >> 8)
	b[7] = byte(etherType)
}

// Decapsulate strips the RFC 2684 header from a received AAL5 SDU and
// returns the EtherType and the inner PDU (aliasing sdu). A VCMux SDU is
// assumed to carry IPv4, the only VC-multiplexed protocol this stack binds.
func Decapsulate(m Method, sdu []byte) (etherType uint16, pdu []byte, err error) {
	if m == VCMux {
		return EtherTypeIPv4, sdu, nil
	}
	et, pdu, ok := DecodeLLCSnap(sdu)
	if !ok {
		if len(sdu) < LLCSnapSize {
			return 0, nil, ErrShortEncap
		}
		return 0, nil, ErrNotLLCSnap
	}
	return et, pdu, nil
}

// DecodeLLCSnap recognizes an LLC/SNAP routed-PDU header at the start of b
// and returns the EtherType and the bytes after it. It is the shared
// decoder for the stack's receive path and cellview's payload loupe.
func DecodeLLCSnap(b []byte) (etherType uint16, pdu []byte, ok bool) {
	if len(b) < LLCSnapSize {
		return 0, nil, false
	}
	for i, want := range llcSnapPrefix {
		if b[i] != want {
			return 0, nil, false
		}
	}
	return uint16(b[6])<<8 | uint16(b[7]), b[LLCSnapSize:], true
}

// EtherTypeName names the EtherTypes this stack knows, for diagnostics.
func EtherTypeName(et uint16) string {
	switch et {
	case EtherTypeIPv4:
		return "IPv4"
	case EtherTypeARP:
		return "ARP"
	case EtherTypeIPv6:
		return "IPv6"
	default:
		return "unknown"
	}
}
