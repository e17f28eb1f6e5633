// Package aal implements the two ATM adaptation layers the host interface's
// protocol engines run as firmware: AAL5 (the simple-and-efficient layer
// that was displacing AAL3/4 as this interface was designed) and AAL3/4 (the
// per-cell-overhead layer standardized first).
//
// The paper's architectural argument for putting SAR on programmable
// engines rather than in gates was exactly that this choice was in flux:
// the same board must speak either by reloading firmware.  Mirroring that,
// both layers here implement the same Segmenter/Reassembler interfaces and
// the NIC model is parameterized over them.
//
// Layout references: ITU-T I.363 (AAL specifications).
package aal

import (
	"errors"
	"fmt"

	"repro/internal/atm"
)

// Type selects an adaptation layer.
type Type uint8

const (
	// AAL5 carries an 8-byte CPCS trailer in the last cell and marks
	// frame boundaries with the PT AAU bit; 48 payload bytes per cell.
	AAL5 Type = iota
	// AAL34 spends 2 bytes of SAR header and 2 of SAR trailer in every
	// cell (44 payload bytes) plus an 8-byte CPCS envelope.
	AAL34
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case AAL5:
		return "AAL5"
	case AAL34:
		return "AAL3/4"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// PerCellPayload returns the SAR payload bytes available per cell.
func (t Type) PerCellPayload() int {
	if t == AAL34 {
		return 44
	}
	return 48
}

// MaxSDU is the largest CPCS-SDU either layer accepts (16-bit length field).
const MaxSDU = 65535

// Errors shared by both layers.
var (
	ErrSDUTooLarge  = errors.New("aal: SDU exceeds 65535 bytes")
	ErrEmptySDU     = errors.New("aal: empty SDU")
	ErrBadCRC       = errors.New("aal: CPCS CRC mismatch")
	ErrBadLength    = errors.New("aal: CPCS length field mismatch")
	ErrLostCell     = errors.New("aal: cell loss detected")
	ErrNoFrame      = errors.New("aal: cell outside any frame")
	ErrFrameTooLong = errors.New("aal: reassembly exceeds maximum frame size")
	ErrBadCellCRC   = errors.New("aal: per-cell CRC-10 mismatch")
	ErrBadSegType   = errors.New("aal: unexpected segment type")
	ErrBadTag       = errors.New("aal: CPCS BTag/ETag mismatch")
)

// Segmenter converts CPCS-SDUs into a stream of cell payloads.  Next fills
// the payload and PT for one cell at a time, which is exactly the granule
// the transmit engine handles per cell time; it reports done=true on the
// frame's final cell.
type Segmenter interface {
	// Begin starts segmenting an SDU. It returns the number of cells the
	// frame will occupy. The SDU bytes are not retained past the last
	// Next call.
	Begin(sdu []byte) (cells int, err error)
	// Next fills the next cell's payload and returns its PT bits and
	// whether this was the final cell. Calling Next with no frame in
	// progress returns ErrNoFrame.
	Next(payload *[atm.PayloadSize]byte) (pt atm.PT, done bool, err error)
	// Type reports the adaptation layer implemented.
	Type() Type
}

// Result is a reassembled CPCS-SDU handed to the host, plus accounting the
// experiments use.
type Result struct {
	SDU   []byte
	Cells int // cells consumed by the frame, including overhead-only cells
	// MID is the AAL3/4 multiplexing identifier the frame's cells carried
	// (set by MIDReassembler34; 0 from every other reassembler).
	MID uint16
}

// Reassembler consumes per-cell payloads in arrival order on one VC and
// emits completed SDUs. Errors are per-frame: after an error the reassembler
// has discarded the damaged frame and is ready for the next. Every
// reassembler can age out the partial frames a lost cell strands.
type Reassembler interface {
	StaleReaper
	// Push consumes one cell's payload and PT. It returns a non-nil
	// Result when the cell completed a frame. Push may return BOTH a
	// Result and ErrLostCell: an arriving single-segment frame can
	// complete while simultaneously revealing that the previous frame's
	// tail was lost.
	//
	// The Result and the bytes of its SDU belong to the reassembler and
	// stay valid only until its next Push or Abort, so a frame costs no
	// allocation. A caller that keeps the SDU copies it, as the
	// interface does into a host receive buffer from its receive pool
	// (nic.Delivered).
	Push(payload *[atm.PayloadSize]byte, pt atm.PT) (*Result, error)
	// Abort discards any partial frame (e.g. on VC teardown).
	Abort()
	// Type reports the adaptation layer implemented.
	Type() Type
}

// StaleReaper ages out abandoned partial frames — the state a lost
// end-of-message cell strands forever otherwise, leaking frame buffers
// (and AAL3/4 MID slots) until none is left. The package stays a
// leaf: the clock is an opaque monotonic int64 the caller provides (the
// NIC passes simulated nanoseconds), sampled once per Push.
type StaleReaper interface {
	// SetClock installs the timestamp source; nil disables staleness
	// tracking (the default — Push then takes no clock sample).
	SetClock(now func() int64)
	// ExpireStale aborts every partial frame whose last cell arrived at
	// or before olderThan and returns how many frames were reclaimed
	// (counted per frame into the attached VCStats as reassembly
	// timeouts).
	ExpireStale(olderThan int64) int
	// Busy reports whether any partial frame is in progress.
	Busy() bool
}

// NewSegmenter returns the layer's segmenter.
func NewSegmenter(t Type) Segmenter {
	switch t {
	case AAL5:
		return NewSegmenter5()
	case AAL34:
		return NewSegmenter34()
	default:
		panic(fmt.Sprintf("aal: unknown type %d", t))
	}
}

// NewReassembler returns the layer's reassembler. maxFrame bounds its
// buffer in bytes (0 means MaxSDU plus trailer room).
func NewReassembler(t Type, maxFrame int) Reassembler {
	switch t {
	case AAL5:
		return NewReassembler5(maxFrame)
	case AAL34:
		return NewReassembler34(maxFrame)
	default:
		panic(fmt.Sprintf("aal: unknown type %d", t))
	}
}
