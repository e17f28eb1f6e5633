package oam

import (
	"errors"

	"repro/internal/atm"
	"repro/internal/crc"
)

// F5 fault-management alarms (ITU-T I.610): a node that detects a defect on
// a connection's upstream (loss of signal, loss of frame) inserts AIS —
// Alarm Indication Signal — cells downstream on every affected VC, so the
// far endpoint learns its receive path is dead without waiting for
// higher-layer timeouts. That endpoint answers with RDI — Remote Defect
// Indication — back toward the source, closing the loop: the transmitting
// side learns the far end cannot hear it even though its own receive
// direction is fine.
//
// Both ride the same 48-byte fault-management payload as loopback, with
// function 0x0 (AIS) or 0x1 (RDI), an optional defect type and defect
// location, 0x6a fill, and the trailing CRC-10.

// ErrNotAlarm marks a fault-management payload that is neither AIS nor RDI.
var ErrNotAlarm = errors.New("oam: not an AIS/RDI alarm cell")

// Alarm is a decoded F5 AIS or RDI payload.
type Alarm struct {
	// Func is FuncAIS or FuncRDI.
	Func uint8
	// DefectType classifies the triggering defect (0 = unspecified, per
	// I.610 the value is optional).
	DefectType uint8
	// Location names the node that detected the defect (all-ones when
	// unspecified).
	Location [16]byte
}

// Encode writes the alarm into a 48-byte cell payload:
//
//	byte 0:      OAM type (high nibble) | function (low nibble)
//	byte 1:      defect type
//	bytes 2-17:  defect location ID
//	bytes 18-45: unused (0x6a fill per I.610)
//	bytes 46-47: 6 reserved bits + CRC-10
func (a *Alarm) Encode(payload *[atm.PayloadSize]byte) {
	payload[0] = TypeFaultMgmt<<4 | a.Func&0x0f
	payload[1] = a.DefectType
	copy(payload[2:18], a.Location[:])
	for i := 18; i < 46; i++ {
		payload[i] = 0x6a
	}
	payload[46], payload[47] = 0, 0
	crc.CRC10Fill(payload[:])
}

// Decode parses an AIS/RDI payload. The interface dispatches alarms on the
// payload's type alone; FuzzOAMDecode and the oam tests round-trip Encode
// through Decode.
func (a *Alarm) Decode(payload *[atm.PayloadSize]byte) error {
	if !crc.CRC10Check(payload[:]) {
		return ErrBadCRC
	}
	fn := payload[0] & 0x0f
	if payload[0]>>4 != TypeFaultMgmt || (fn != FuncAIS && fn != FuncRDI) {
		return ErrNotAlarm
	}
	a.Func = fn
	a.DefectType = payload[1]
	copy(a.Location[:], payload[2:18])
	return nil
}

// Classify is the cheap dispatch peek the receive firmware runs on every
// management cell: it verifies the CRC-10 and returns the OAM type and
// function nibbles. ok is false when the payload is damaged.
func Classify(payload *[atm.PayloadSize]byte) (typ, fn uint8, ok bool) {
	if !crc.CRC10Check(payload[:]) {
		return 0, 0, false
	}
	return payload[0] >> 4, payload[0] & 0x0f, true
}

// alarmCell builds one F5 end-to-end OAM cell carrying an alarm on vc.
func alarmCell(vc atm.VC, fn uint8, location [16]byte) *atm.Cell {
	c := &atm.Cell{Header: atm.Header{
		Format: atm.UNI, VPI: vc.VPI, VCI: vc.VCI, PT: atm.PTOAMEndToEnd,
	}}
	a := Alarm{Func: fn, Location: location}
	a.Encode(&c.Payload)
	return c
}

// NewAIS builds an AIS cell for vc, stamped with the detecting node's
// location ID.
func NewAIS(vc atm.VC, location [16]byte) *atm.Cell {
	return alarmCell(vc, FuncAIS, location)
}

// NewRDI builds an RDI cell for vc, stamped with the reporting endpoint's
// location ID.
func NewRDI(vc atm.VC, location [16]byte) *atm.Cell {
	return alarmCell(vc, FuncRDI, location)
}

// LocationID packs a node name into a 16-byte location field (truncated or
// zero-padded).
func LocationID(name string) (id [16]byte) {
	copy(id[:], name)
	return id
}
