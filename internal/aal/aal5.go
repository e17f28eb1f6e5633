package aal

import (
	"encoding/binary"

	"repro/internal/atm"
	"repro/internal/bufpool"
	"repro/internal/crc"
	"repro/internal/metrics"
	"repro/internal/units"
)

// AAL5 CPCS-PDU layout (I.363.5): the SDU, zero padding to fill the final
// cell, then an 8-byte trailer in the last 8 bytes of the last cell:
//
//	CPCS-UU (1) | CPI (1) | Length (2, big-endian) | CRC-32 (4)
//
// Frame boundaries ride in the ATM header's PT AAU bit, so AAL5 spends no
// per-cell overhead at all — the efficiency argument that won it the fight.
const (
	trailerSize = 8
)

// Segmenter5 segments CPCS-SDUs per AAL5. The zero value is not ready;
// use NewSegmenter5.
type Segmenter5 struct {
	sdu     []byte
	off     int
	cells   int // remaining cells including the trailer cell
	crcReg  uint32
	trailer [trailerSize]byte
	active  bool
}

// NewSegmenter5 returns an AAL5 segmenter.
func NewSegmenter5() *Segmenter5 { return &Segmenter5{} }

// Type implements Segmenter.
func (s *Segmenter5) Type() Type { return AAL5 }

// CellsForSDU5 returns the number of cells an n-byte SDU occupies under
// AAL5: payload plus 8-byte trailer, padded to a multiple of 48.
func CellsForSDU5(n int) int {
	return units.CellsForPayload(n+trailerSize, atm.PayloadSize)
}

// Begin implements Segmenter.
func (s *Segmenter5) Begin(sdu []byte) (int, error) {
	if len(sdu) == 0 {
		return 0, ErrEmptySDU
	}
	if len(sdu) > MaxSDU {
		return 0, ErrSDUTooLarge
	}
	s.sdu = sdu
	s.off = 0
	s.cells = CellsForSDU5(len(sdu))
	s.crcReg = 0xffff_ffff
	s.active = true
	// Build the trailer now except for the CRC, which folds in cell by
	// cell — mirroring the hardware CRC unit that watches the byte
	// stream as the DMA engine feeds it.
	s.trailer[0] = 0 // CPCS-UU: transparent, unused by the interface
	s.trailer[1] = 0 // CPI: must be zero per I.363.5
	binary.BigEndian.PutUint16(s.trailer[2:4], uint16(len(sdu)))
	return s.cells, nil
}

// Next implements Segmenter.
func (s *Segmenter5) Next(payload *[atm.PayloadSize]byte) (atm.PT, bool, error) {
	if !s.active {
		return 0, false, ErrNoFrame
	}
	last := s.cells == 1
	n := copy(payload[:], s.sdu[s.off:])
	s.off += n
	if !last {
		// A full middle cell. (A non-final cell is always full: padding
		// only ever appears in the last cell.)
		s.crcReg = crc.CRC32Update(s.crcReg, payload[:])
		s.cells--
		return atm.PTUser0, false, nil
	}
	// Final cell: pad, then place the trailer in the last 8 bytes.
	for i := n; i < atm.PayloadSize; i++ {
		payload[i] = 0
	}
	// CRC covers SDU + pad + UU/CPI/Length, then the CRC itself lands in
	// the final 4 bytes.
	copy(payload[atm.PayloadSize-trailerSize:], s.trailer[:4])
	s.crcReg = crc.CRC32Update(s.crcReg, payload[:atm.PayloadSize-4])
	binary.BigEndian.PutUint32(payload[atm.PayloadSize-4:], s.crcReg^0xffff_ffff)
	s.cells = 0
	s.active = false
	s.sdu = nil
	return atm.PTUserEnd, true, nil
}

// Reassembler5 reassembles AAL5 CPCS-PDUs from in-order cell payloads.
type Reassembler5 struct {
	buf      []byte
	maxFrame int
	crcReg   uint32
	cells    int
	active   bool
	vst      *metrics.VCStats
	clock    func() int64 // nil = no staleness tracking
	lastPush int64
	res      Result // the completed frame Push hands out
}

// SetVCStats attaches the connection's telemetry row; CRC and length
// failures are then counted inline as the reassembler detects them.
func (r *Reassembler5) SetVCStats(s *metrics.VCStats) { r.vst = s }

// SetPool has no effect: Result.SDU is the reassembler's own storage (see
// Reassembler.Push), so there is nothing to draw from a pool. It remains so
// that existing callers still compile.
//
// Deprecated: Push allocates nothing; drop the call.
func (r *Reassembler5) SetPool(*bufpool.Pool) {}

// SetClock implements StaleReaper.
func (r *Reassembler5) SetClock(now func() int64) { r.clock = now }

// Busy implements StaleReaper.
func (r *Reassembler5) Busy() bool { return r.active }

// ExpireStale implements StaleReaper: a partial frame whose last cell
// arrived at or before olderThan is aborted and counted as a reassembly
// timeout. This is how an AAL5 frame whose end-of-frame cell died on a
// failed link stops holding its buffer forever.
func (r *Reassembler5) ExpireStale(olderThan int64) int {
	if !r.active || r.lastPush > olderThan {
		return 0
	}
	r.Abort()
	r.vst.IncReassemblyTimeout()
	r.vst.Drop(metrics.DropReassemblyTimeout)
	return 1
}

// NewReassembler5 returns an AAL5 reassembler whose frame buffer holds up to
// maxFrame bytes (0 selects the maximum legal frame).
func NewReassembler5(maxFrame int) *Reassembler5 {
	if maxFrame <= 0 {
		maxFrame = MaxSDU + trailerSize + atm.PayloadSize
	}
	return &Reassembler5{buf: make([]byte, 0, maxFrame), maxFrame: maxFrame}
}

// Type implements Reassembler.
func (r *Reassembler5) Type() Type { return AAL5 }

// Abort implements Reassembler.
func (r *Reassembler5) Abort() {
	r.buf = r.buf[:0]
	r.active = false
	r.cells = 0
}

// Push implements Reassembler.
//
// AAL5 has no per-cell sequence numbers: a lost cell is only discovered at
// the end of the frame when the CRC-32 fails (or the length field disagrees)
// — the whole-frame-discard behaviour experiment E8 measures.
func (r *Reassembler5) Push(payload *[atm.PayloadSize]byte, pt atm.PT) (*Result, error) {
	if !pt.User() {
		return nil, ErrBadSegType
	}
	if r.clock != nil {
		r.lastPush = r.clock()
	}
	if len(r.buf)+atm.PayloadSize > r.maxFrame+atm.PayloadSize {
		// Frame has outgrown the buffer: a lost end-of-frame cell has
		// merged two frames. Drop everything accumulated; the current
		// cell begins no recoverable frame either.
		r.Abort()
		r.vst.IncLostCells()
		return nil, ErrFrameTooLong
	}
	if !r.active {
		r.active = true
		r.crcReg = 0xffff_ffff
		r.cells = 0
	}
	r.buf = append(r.buf, payload[:]...)
	r.cells++
	if !pt.EndOfFrame() {
		r.crcReg = crc.CRC32Update(r.crcReg, payload[:])
		return nil, nil
	}
	// Last cell: verify trailer.
	n := len(r.buf)
	r.crcReg = crc.CRC32Update(r.crcReg, r.buf[n-atm.PayloadSize:n-4])
	wantCRC := binary.BigEndian.Uint32(r.buf[n-4:])
	gotCRC := r.crcReg ^ 0xffff_ffff
	length := int(binary.BigEndian.Uint16(r.buf[n-6 : n-4]))
	cells := r.cells
	defer r.Abort()
	if gotCRC != wantCRC {
		r.vst.IncCRCError()
		return nil, ErrBadCRC
	}
	if length == 0 || length > n-trailerSize || n-(length+trailerSize) >= atm.PayloadSize {
		// Length must fit in the frame and the pad must be < one cell.
		r.vst.IncLengthError()
		return nil, ErrBadLength
	}
	if length > r.maxFrame {
		// Intact, but longer than this receiver's buffer bound.
		r.vst.IncLengthError()
		return nil, ErrFrameTooLong
	}
	// The SDU stays in the frame buffer: the deferred Abort only rewinds
	// its length, and the next Push is the first to overwrite it.
	r.res = Result{SDU: r.buf[:length], Cells: cells}
	return &r.res, nil
}
