package aal

import (
	"errors"
	"fmt"

	"repro/internal/atm"
)

// AAL1 (I.363.1) is the constant-bit-rate adaptation layer: circuit
// emulation, uncompressed voice and video. Each cell spends exactly one
// header byte:
//
//	CSI (1 bit) | SC (3-bit sequence count) | CRC-3 | even parity
//
// and carries 47 payload bytes. There is no frame structure and no
// retransmission — the receiver's only defenses are the 3-bit sequence
// count (detects up to 7 consecutive lost cells) and the CRC-3+parity that
// protects the count itself against misinterpreting corruption as loss.
//
// This implementation is the unstructured data-transfer mode as a stream
// codec: the Sender produces cells from a byte stream, the Receiver emits
// the byte stream plus loss reports. It deliberately does not implement the
// Segmenter/Reassembler frame interfaces — AAL1 has no frames, and forcing
// it into that shape would misrepresent the protocol.

// AAL1Payload is the per-cell payload under AAL1.
const AAL1Payload = 47

// Errors.
var (
	ErrAAL1BadHeader = errors.New("aal: AAL1 header fails CRC/parity")
	ErrAAL1Loss      = errors.New("aal: AAL1 sequence gap (cells lost)")
	ErrAAL1Misinsert = errors.New("aal: AAL1 sequence count repeated (misinserted cell)")
)

// crc3 computes the 3-bit CRC (generator x³+x+1) over the 4 bits CSI|SC,
// processed MSB-first.
func crc3(nibble uint8) uint8 {
	reg := uint8(0)
	for i := 3; i >= 0; i-- {
		bit := (nibble >> i) & 1
		top := (reg >> 2) & 1
		reg = (reg << 1) & 0x7
		if top^bit != 0 {
			reg ^= 0x3 // x+1 taps
		}
	}
	return reg
}

// parity returns the even-parity bit over the 7 MSBs of the header byte.
func parity(b uint8) uint8 {
	b >>= 1
	b ^= b >> 4
	b ^= b >> 2
	b ^= b >> 1
	return b & 1
}

// aal1Header builds the SAR header byte for (csi, sc).
func aal1Header(csi bool, sc uint8) uint8 {
	var b uint8
	if csi {
		b |= 0x80
	}
	b |= (sc & 0x7) << 4
	b |= crc3(b>>4) << 1
	b |= parity(b)
	return b
}

// parseAAL1Header validates and splits the header byte.
func parseAAL1Header(b uint8) (csi bool, sc uint8, err error) {
	if parity(b) != b&1 {
		return false, 0, ErrAAL1BadHeader
	}
	if crc3(b>>4) != (b>>1)&0x7 {
		return false, 0, ErrAAL1BadHeader
	}
	return b&0x80 != 0, (b >> 4) & 0x7, nil
}

// AAL1Sender produces cells from a CBR byte stream.
type AAL1Sender struct {
	sc  uint8
	buf []byte
}

// NewAAL1Sender returns a sender with sequence count 0.
func NewAAL1Sender() *AAL1Sender { return &AAL1Sender{} }

// Write appends stream bytes awaiting cellification.
func (s *AAL1Sender) Write(p []byte) {
	s.buf = append(s.buf, p...)
}

// NextCell fills one cell payload from the stream. It returns false when
// fewer than 47 bytes are buffered (a CBR source never underruns; if it
// does, the circuit inserts conditioning, which the caller models).
func (s *AAL1Sender) NextCell(payload *[atm.PayloadSize]byte) bool {
	if len(s.buf) < AAL1Payload {
		return false
	}
	payload[0] = aal1Header(false, s.sc)
	copy(payload[1:], s.buf[:AAL1Payload])
	s.buf = s.buf[:copy(s.buf, s.buf[AAL1Payload:])]
	s.sc = (s.sc + 1) & 0x7
	return true
}

// AAL1Receiver consumes cells and reproduces the byte stream.
type AAL1Receiver struct {
	expect  uint8
	started bool
	out     []byte

	// Stats.
	Cells     uint64
	LostCells uint64 // inferred from sequence gaps
	BadHeader uint64
}

// NewAAL1Receiver returns a receiver that synchronizes to the first cell.
func NewAAL1Receiver() *AAL1Receiver { return &AAL1Receiver{} }

// Push consumes one cell payload. On a sequence gap it returns ErrAAL1Loss
// (wrapped with the inferred count) after inserting silence (zero bytes)
// for the missing cells — circuit emulation must keep the clock ticking.
func (r *AAL1Receiver) Push(payload *[atm.PayloadSize]byte) error {
	_, sc, err := parseAAL1Header(payload[0])
	if err != nil {
		r.BadHeader++
		// Header unusable: conceal the cell as silence and assume it was
		// the expected one, so an undamaged successor doesn't get double
		// counted as a sequence gap.
		r.out = append(r.out, make([]byte, AAL1Payload)...)
		if r.started {
			r.expect = (r.expect + 1) & 0x7
		}
		return err
	}
	r.Cells++
	if !r.started {
		r.started = true
		r.expect = (sc + 1) & 0x7
		r.out = append(r.out, payload[1:1+AAL1Payload]...)
		return nil
	}
	if sc != r.expect {
		gap := int(sc-r.expect) & 0x7
		if gap == 7 {
			// One step "backwards" is far more likely a misinserted
			// or duplicated cell than 7 losses; drop it.
			return ErrAAL1Misinsert
		}
		r.LostCells += uint64(gap)
		r.out = append(r.out, make([]byte, gap*AAL1Payload)...)
		r.out = append(r.out, payload[1:1+AAL1Payload]...)
		r.expect = (sc + 1) & 0x7
		return fmt.Errorf("%w: %d cells", ErrAAL1Loss, gap)
	}
	r.out = append(r.out, payload[1:1+AAL1Payload]...)
	r.expect = (sc + 1) & 0x7
	return nil
}

// Pending returns reproduced bytes not yet read.
func (r *AAL1Receiver) Pending() int { return len(r.out) }
