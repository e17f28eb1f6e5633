// Package fec implements packet-level forward error correction above the
// AAL5 service: groups of k data packets are followed by one XOR parity
// packet, so any single loss within a group is reconstructed without a
// retransmission round trip.
//
// This is the recovery style the early-90s loss-sensitivity results (our E8)
// pushed the field toward — parity over packets, computed by the host,
// because AAL5 deliberately has no per-cell redundancy. It trades k⁻¹ of the
// bandwidth for immunity to isolated frame loss; burst losses of two or
// more frames in one group still need the transport's retransmission.
//
// Wire format: every packet (data and parity) is prefixed with an 8-byte
// header:
//
//	magic (1) | flags (1: bit0 = parity) | group (2) | index (1) | k (1) | length (2)
//
// where length is the original payload length for data packets; a parity
// packet's body is the XOR of the group's length-prefixed, zero-padded
// bodies, letting the decoder recover both the bytes and the length of the
// missing packet.
package fec

import (
	"encoding/binary"
	"errors"
	"fmt"
)

const (
	magic      = 0xFE
	flagParity = 0x01
	// HeaderSize is the per-packet FEC overhead.
	HeaderSize = 8
	// MaxData bounds a protected payload (length field is 16 bits).
	MaxData = 65000
)

// Errors.
var (
	ErrTooLarge  = errors.New("fec: payload exceeds MaxData")
	ErrNotFEC    = errors.New("fec: not an FEC packet")
	ErrBadK      = errors.New("fec: invalid group size")
	ErrDuplicate = errors.New("fec: duplicate packet in group")
)

// Encoder wraps payloads into FEC groups. Not safe for concurrent use (the
// simulator is single-threaded by design).
type Encoder struct {
	k      int
	group  uint16
	index  int
	parity []byte // running XOR of length-prefixed padded bodies
	maxLen int
}

// NewEncoder returns an encoder emitting one parity packet per k data
// packets. k must be in [2, 255].
func NewEncoder(k int) *Encoder {
	if k < 2 || k > 255 {
		panic(fmt.Sprintf("fec: invalid k %d", k))
	}
	return &Encoder{k: k}
}

// body builds the XOR unit for a payload: 2-byte length + payload.
func body(payload []byte) []byte {
	b := make([]byte, 2+len(payload))
	binary.BigEndian.PutUint16(b[:2], uint16(len(payload)))
	copy(b[2:], payload)
	return b
}

// Encode wraps one payload. It returns the wrapped data packet and, when
// this payload completes a group, the group's parity packet.
func (e *Encoder) Encode(payload []byte) (data []byte, parity []byte, err error) {
	if len(payload) > MaxData {
		return nil, nil, ErrTooLarge
	}
	data = make([]byte, HeaderSize+len(payload))
	data[0] = magic
	data[1] = 0
	binary.BigEndian.PutUint16(data[2:4], e.group)
	data[4] = byte(e.index)
	data[5] = byte(e.k)
	binary.BigEndian.PutUint16(data[6:8], uint16(len(payload)))
	copy(data[HeaderSize:], payload)

	// Fold into the running parity.
	b := body(payload)
	if len(b) > len(e.parity) {
		e.parity = append(e.parity, make([]byte, len(b)-len(e.parity))...)
	}
	for i := range b {
		e.parity[i] ^= b[i]
	}
	e.index++

	if e.index == e.k {
		parity = make([]byte, HeaderSize+len(e.parity))
		parity[0] = magic
		parity[1] = flagParity
		binary.BigEndian.PutUint16(parity[2:4], e.group)
		parity[4] = byte(e.k)
		parity[5] = byte(e.k)
		binary.BigEndian.PutUint16(parity[6:8], uint16(len(e.parity)))
		copy(parity[HeaderSize:], e.parity)
		e.group++
		e.index = 0
		e.parity = nil
	}
	return data, parity, nil
}

// DecoderStats counts recovery events.
type DecoderStats struct {
	Data      uint64 // data packets passed through
	Parity    uint64 // parity packets consumed
	Recovered uint64 // payloads reconstructed from parity
	Unusable  uint64 // groups with 2+ losses (parity wasted)
}

// Decoder unwraps FEC packets and reconstructs single losses. Payloads are
// delivered via the callback in arrival order; a recovered payload is
// delivered when its group's parity arrives.
type Decoder struct {
	deliver func(payload []byte, recovered bool)
	groups  map[uint16]*groupState
	stats   DecoderStats
}

type groupState struct {
	k       int
	seen    map[int]bool
	parity  []byte // running XOR of seen bodies
	nSeen   int
	hasPar  bool
	parBody []byte
}

// NewDecoder returns a decoder delivering payloads to the callback.
func NewDecoder(deliver func(payload []byte, recovered bool)) *Decoder {
	if deliver == nil {
		panic("fec: nil deliver callback")
	}
	return &Decoder{deliver: deliver, groups: make(map[uint16]*groupState)}
}

// Stats returns recovery counters.
func (d *Decoder) Stats() DecoderStats { return d.stats }

// Push consumes one wrapped packet (data or parity).
func (d *Decoder) Push(pkt []byte) error {
	if len(pkt) < HeaderSize || pkt[0] != magic {
		return ErrNotFEC
	}
	isParity := pkt[1]&flagParity != 0
	group := binary.BigEndian.Uint16(pkt[2:4])
	index := int(pkt[4])
	k := int(pkt[5])
	length := int(binary.BigEndian.Uint16(pkt[6:8]))
	if k < 2 || k > 255 || (!isParity && index >= k) {
		return ErrBadK
	}
	if len(pkt) < HeaderSize+length {
		return ErrNotFEC
	}

	gs := d.groups[group]
	if gs == nil {
		gs = &groupState{k: k, seen: make(map[int]bool)}
		d.groups[group] = gs
	}

	if isParity {
		if gs.hasPar {
			return ErrDuplicate
		}
		gs.hasPar = true
		gs.parBody = append([]byte(nil), pkt[HeaderSize:HeaderSize+length]...)
		d.stats.Parity++
		d.finishGroup(group, gs)
		return nil
	}

	if gs.seen[index] {
		return ErrDuplicate
	}
	gs.seen[index] = true
	gs.nSeen++
	payload := pkt[HeaderSize : HeaderSize+length]
	out := append([]byte(nil), payload...)

	// Fold into the group's running XOR for possible recovery later.
	b := body(payload)
	if len(b) > len(gs.parity) {
		gs.parity = append(gs.parity, make([]byte, len(b)-len(gs.parity))...)
	}
	for i := range b {
		gs.parity[i] ^= b[i]
	}

	d.stats.Data++
	d.deliver(out, false)
	d.finishGroup(group, gs)
	return nil
}

// finishGroup attempts recovery / cleanup once enough of a group has
// arrived.
func (d *Decoder) finishGroup(group uint16, gs *groupState) {
	switch {
	case gs.nSeen == gs.k:
		// Complete without needing parity.
		delete(d.groups, group)
	case gs.hasPar && gs.nSeen == gs.k-1:
		// Exactly one data packet missing: XOR of parity body and the
		// seen bodies IS the missing body.
		n := len(gs.parBody)
		if len(gs.parity) > n {
			n = len(gs.parity)
		}
		rec := make([]byte, n)
		copy(rec, gs.parBody)
		for i := 0; i < len(gs.parity) && i < n; i++ {
			rec[i] ^= gs.parity[i]
		}
		if len(rec) >= 2 {
			length := int(binary.BigEndian.Uint16(rec[:2]))
			if 2+length <= len(rec) {
				d.stats.Recovered++
				d.deliver(rec[2:2+length], true)
			} else {
				d.stats.Unusable++
			}
		}
		delete(d.groups, group)
	case gs.hasPar && gs.nSeen < gs.k-1:
		// Two or more missing: the group is beyond XOR repair. Keep it
		// until stragglers arrive? In-order AAL delivery means nothing
		// more is coming once the parity has arrived.
		d.stats.Unusable++
		delete(d.groups, group)
	}
}
