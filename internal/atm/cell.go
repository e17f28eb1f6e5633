// Package atm implements the ATM cell: the 53-byte unit the whole host
// interface is built around.  It provides header encode/decode for both UNI
// and NNI formats, HEC generation and single-bit correction, and the
// well-known reserved cell patterns (idle, unassigned).
//
// The codec follows the gopacket idiom for hot paths: decoding writes into a
// caller-held Header and encoding writes into a caller-held byte array, so
// per-cell processing allocates nothing.
package atm

import (
	"errors"
	"fmt"

	"repro/internal/crc"
	"repro/internal/sim"
)

// Cell geometry.
const (
	CellSize    = 53 // header + payload on the wire
	HeaderSize  = 5  // includes the HEC byte
	PayloadSize = 48
)

// Format selects between the two ATM header layouts.
type Format uint8

const (
	// UNI is the user-network interface header: 4-bit GFC, 8-bit VPI,
	// 16-bit VCI. This is what a host interface generates.
	UNI Format = iota
	// NNI is the network-node interface header: no GFC, 12-bit VPI.
	NNI
)

// String implements fmt.Stringer.
func (f Format) String() string {
	switch f {
	case UNI:
		return "UNI"
	case NNI:
		return "NNI"
	default:
		return fmt.Sprintf("Format(%d)", uint8(f))
	}
}

// PT is the 3-bit payload type indicator. Bit 2 (MSB) distinguishes user
// from management cells; for user cells bit 1 is the EFCI congestion flag
// and bit 0 is the AAL-indicate bit — which AAL5 uses to mark the last cell
// of a CPCS-PDU, the load-bearing trick that lets the reassembler find frame
// boundaries without per-cell length fields.
type PT uint8

const (
	// PTUser0 is a user data cell, no congestion, AAU=0.
	PTUser0 PT = 0b000
	// PTUserEnd is a user data cell with AAU=1: under AAL5, the final
	// cell of a CPCS-PDU.
	PTUserEnd PT = 0b001
	// PTUserCongested marks EFCI congestion experienced.
	PTUserCongested PT = 0b010
	// PTUserCongestedEnd is congestion + end-of-frame.
	PTUserCongestedEnd PT = 0b011
	// PTOAMSegment and friends are management cells; the interface
	// forwards them to firmware rather than the reassembly fast path.
	// The values no model sends (PTUserCongestedEnd, PTOAMSegment,
	// PTReservedPT111) stay to complete the field's code book.
	PTOAMSegment    PT = 0b100
	PTOAMEndToEnd   PT = 0b101
	PTResourceMgmt  PT = 0b110
	PTReservedPT111 PT = 0b111
)

// EndOfFrame reports whether the AAU bit is set on a user-data cell (the
// AAL5 end-of-CPCS-PDU marker).
func (p PT) EndOfFrame() bool { return p&0b100 == 0 && p&0b001 != 0 }

// User reports whether the cell carries user data (vs OAM/RM).
func (p PT) User() bool { return p&0b100 == 0 }

// Congestion reports the EFCI bit on user cells.
func (p PT) Congestion() bool { return p&0b100 == 0 && p&0b010 != 0 }

// Header is a decoded ATM cell header. Fields follow I.361.
type Header struct {
	Format Format
	GFC    uint8  // 4 bits, UNI only
	VPI    uint16 // 8 bits (UNI) or 12 bits (NNI)
	VCI    uint16 // 16 bits
	PT     PT     // 3 bits
	CLP    bool   // cell loss priority: true = discard-eligible
}

// VC identifies a virtual connection: the (VPI, VCI) pair the receive path
// demultiplexes on.
type VC struct {
	VPI uint16
	VCI uint16
}

// VC returns the header's connection identifier.
func (h *Header) VC() VC { return VC{VPI: h.VPI, VCI: h.VCI} }

// String implements fmt.Stringer.
func (v VC) String() string { return fmt.Sprintf("%d/%d", v.VPI, v.VCI) }

// Errors returned by the codec.
var (
	ErrVPIRange  = errors.New("atm: VPI out of range for header format")
	ErrGFCRange  = errors.New("atm: GFC out of range")
	ErrPTRange   = errors.New("atm: PT out of range")
	ErrShortBuf  = errors.New("atm: buffer shorter than a cell header")
	ErrHECFailed = errors.New("atm: uncorrectable header error")
)

// MaxVPI returns the largest VPI encodable in the format.
func (f Format) MaxVPI() uint16 {
	if f == NNI {
		return 0xfff
	}
	return 0xff
}

// Encode writes the 5-byte header, including a freshly computed HEC, into
// dst. It validates field ranges: a host interface must never emit a
// malformed header, so violations are errors rather than silent masking.
func (h *Header) Encode(dst []byte) error {
	if len(dst) < HeaderSize {
		return ErrShortBuf
	}
	if h.VPI > h.Format.MaxVPI() {
		return fmt.Errorf("%w: VPI %d under %v", ErrVPIRange, h.VPI, h.Format)
	}
	if h.GFC > 0xf {
		return fmt.Errorf("%w: GFC %d", ErrGFCRange, h.GFC)
	}
	if h.PT > 7 {
		return fmt.Errorf("%w: PT %d", ErrPTRange, h.PT)
	}
	h.put((*[HeaderSize]byte)(dst))
	return nil
}

// put writes a header whose fields are in range, HEC included.
func (h *Header) put(dst *[HeaderSize]byte) {
	var clp byte
	if h.CLP {
		clp = 1
	}
	if h.Format == UNI {
		dst[0] = h.GFC<<4 | byte(h.VPI>>4)
	} else {
		dst[0] = byte(h.VPI>>8<<4) | byte(h.VPI>>4)&0x0f
	}
	dst[1] = byte(h.VPI)<<4 | byte(h.VCI>>12)
	dst[2] = byte(h.VCI >> 4)
	dst[3] = byte(h.VCI)<<4 | byte(h.PT)<<1 | clp
	dst[4] = crc.HEC([4]byte{dst[0], dst[1], dst[2], dst[3]})
}

// Decode parses a 5-byte header from src into h, verifying the HEC and
// correcting a single-bit error in place in its private copy.  corrected
// reports whether a correction was applied.  On an uncorrectable header it
// returns ErrHECFailed and leaves h unspecified — the caller must discard
// the cell, exactly as the delineation hardware does.
func (h *Header) Decode(src []byte, format Format) (corrected bool, err error) {
	if len(src) < HeaderSize {
		return false, ErrShortBuf
	}
	var raw [5]byte
	copy(raw[:], src[:5])
	ok, corrected := crc.HECCheck(&raw)
	if !ok {
		return false, ErrHECFailed
	}
	h.DecodeFields(raw[:], format)
	return corrected, nil
}

// DecodeFields parses the header fields of src[0:4] into h without looking
// at the HEC: the receive path of a line whose cell delineation has already
// checked (and, if need be, corrected) every header it hands up.
func (h *Header) DecodeFields(src []byte, format Format) {
	raw := (*[4]byte)(src)
	h.Format = format
	if format == UNI {
		h.GFC = raw[0] >> 4
		h.VPI = uint16(raw[0]&0x0f)<<4 | uint16(raw[1]>>4)
	} else {
		h.GFC = 0
		h.VPI = uint16(raw[0])<<4 | uint16(raw[1]>>4)
	}
	h.VCI = uint16(raw[1]&0x0f)<<12 | uint16(raw[2])<<4 | uint16(raw[3]>>4)
	h.PT = PT(raw[3] >> 1 & 0x7)
	h.CLP = raw[3]&1 != 0
}

// Cell is a full 53-byte cell: decoded header plus payload bytes.  The
// simulator passes *Cell values between pipeline stages; Pool recycles them
// so the per-cell path does not allocate.
type Cell struct {
	Header  Header
	Payload [PayloadSize]byte

	// Stamp is simulator metadata, not part of the wire format: the time
	// the cell entered the queue that holds it now. A queue sets it on a
	// successful push and reads it where it pops, to time the cell's
	// residency; a copied cell carries a stale stamp until its next push.
	Stamp sim.Time
}

// Encode writes the full 53-byte wire form of the cell.
func (c *Cell) Encode(dst []byte) error {
	if len(dst) < CellSize {
		return ErrShortBuf
	}
	if err := c.Header.Encode(dst[:HeaderSize]); err != nil {
		return err
	}
	copy(dst[HeaderSize:CellSize], c.Payload[:])
	return nil
}

// Decode parses a full 53-byte cell.
func (c *Cell) Decode(src []byte, format Format) (corrected bool, err error) {
	if len(src) < CellSize {
		return false, ErrShortBuf
	}
	corrected, err = c.Header.Decode(src[:HeaderSize], format)
	if err != nil {
		return false, err
	}
	copy(c.Payload[:], src[HeaderSize:CellSize])
	return corrected, nil
}

// IdleCell returns the I.432 idle cell: all-zero header with CLP=1,
// payload 0x6a repeated. The framer inserts these when the transmit FIFO
// runs dry, because SONET must carry a continuous cell stream.
func IdleCell() *Cell {
	c := &Cell{Header: Header{Format: UNI, CLP: true}}
	for i := range c.Payload {
		c.Payload[i] = 0x6a
	}
	return c
}

// IdleCellWire returns IdleCell as it goes on the line, HEC included, for
// a framer to encode once and copy into every idle slot.
func IdleCellWire() (wire [CellSize]byte) {
	c := IdleCell()
	c.Header.put((*[HeaderSize]byte)(wire[:]))
	copy(wire[HeaderSize:], c.Payload[:])
	return wire
}

// IsIdle reports whether a decoded header is the idle/unassigned pattern
// (VPI=0, VCI=0), which the receive path drops before demultiplexing.
func (h *Header) IsIdle() bool { return h.VPI == 0 && h.VCI == 0 }
