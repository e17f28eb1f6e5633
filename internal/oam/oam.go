// Package oam implements the F5 (VC-level) operations-and-maintenance cells
// the interface must handle off the fast path: ITU-T I.610 loopback, the
// connectivity-check of the ATM world. A loopback cell carries a loopback
// indication bit, a correlation tag, and location IDs in a 48-byte payload
// protected by CRC-10; the target flips the indication bit and sends the
// cell back.
//
// The receive firmware diverts PT=OAM cells to this slow path (counted in
// RxStats.OAMCells); the nic integration answers loopbacks in firmware, as
// the board's engines did, without host involvement.
package oam

import (
	"encoding/binary"
	"errors"

	"repro/internal/atm"
	"repro/internal/crc"
)

// Cell type / function type identifiers (I.610).
const (
	// TypeFaultMgmt is the OAM type nibble for fault management.
	TypeFaultMgmt = 0x1
	// FuncLoopback is the function nibble for loopback.
	FuncLoopback = 0x8
	// FuncAIS and FuncRDI are the fault-management alarm signals (see
	// fault.go: generated at a failure's downstream neighbour and echoed
	// back by the far endpoint).
	FuncAIS = 0x0
	FuncRDI = 0x1
)

// Loopback is a decoded F5 loopback payload.
type Loopback struct {
	// Indication is true for a request ("loop me back"), false for a
	// response.
	Indication bool
	// Correlation lets the originator match responses to requests.
	Correlation uint32
	// LocationID names the loopback point (all-ones = endpoint).
	LocationID [16]byte
	// SourceID names the originator.
	SourceID [16]byte
}

// Errors.
var (
	ErrNotOAM  = errors.New("oam: cell is not an OAM cell")
	ErrBadCRC  = errors.New("oam: CRC-10 mismatch")
	ErrNotLoop = errors.New("oam: not a fault-management loopback cell")
)

// endpointID is the all-ones location ID meaning "the connection endpoint".
func endpointID() (id [16]byte) {
	for i := range id {
		id[i] = 0xff
	}
	return id
}

// EndpointLocation is the all-ones location ID.
var EndpointLocation = endpointID()

// Encode writes the loopback into a 48-byte cell payload:
//
//	byte 0:     OAM type (high nibble) | function (low nibble)
//	byte 1:     loopback indication (bit 0)
//	bytes 2-5:  correlation tag (big-endian)
//	bytes 6-21: location ID
//	bytes 22-37: source ID
//	bytes 38-45: unused (0x6a fill per I.610)
//	bytes 46-47: 6 reserved bits + CRC-10
func (l *Loopback) Encode(payload *[atm.PayloadSize]byte) {
	payload[0] = TypeFaultMgmt<<4 | FuncLoopback
	if l.Indication {
		payload[1] = 0x01
	} else {
		payload[1] = 0x00
	}
	binary.BigEndian.PutUint32(payload[2:6], l.Correlation)
	copy(payload[6:22], l.LocationID[:])
	copy(payload[22:38], l.SourceID[:])
	for i := 38; i < 46; i++ {
		payload[i] = 0x6a
	}
	payload[46], payload[47] = 0, 0
	crc.CRC10Fill(payload[:])
}

// Decode parses an OAM loopback payload.
func (l *Loopback) Decode(payload *[atm.PayloadSize]byte) error {
	if !crc.CRC10Check(payload[:]) {
		return ErrBadCRC
	}
	if payload[0]>>4 != TypeFaultMgmt || payload[0]&0x0f != FuncLoopback {
		return ErrNotLoop
	}
	l.Indication = payload[1]&0x01 != 0
	l.Correlation = binary.BigEndian.Uint32(payload[2:6])
	copy(l.LocationID[:], payload[6:22])
	copy(l.SourceID[:], payload[22:38])
	return nil
}

// NewRequest builds a loopback request cell for vc with the given
// correlation tag, targeted at the connection endpoint.
func NewRequest(vc atm.VC, correlation uint32, source [16]byte) *atm.Cell {
	c := &atm.Cell{Header: atm.Header{
		Format: atm.UNI, VPI: vc.VPI, VCI: vc.VCI, PT: atm.PTOAMEndToEnd,
	}}
	lb := Loopback{
		Indication:  true,
		Correlation: correlation,
		LocationID:  EndpointLocation,
		SourceID:    source,
	}
	lb.Encode(&c.Payload)
	return c
}

// Respond turns a request cell into its response in place: indication
// cleared, CRC refreshed. It returns an error if the cell is not a valid
// loopback request addressed to this endpoint (or to everyone).
func Respond(c *atm.Cell) error {
	if c.Header.PT.User() {
		return ErrNotOAM
	}
	var lb Loopback
	if err := lb.Decode(&c.Payload); err != nil {
		return err
	}
	if !lb.Indication {
		return ErrNotLoop // already a response; don't loop forever
	}
	lb.Indication = false
	lb.Encode(&c.Payload)
	return nil
}
