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

// zeroPad stands in, in the final cell's CRC pass, for the pad that spilled
// into the penultimate cell: at most 7 bytes.
var zeroPad [trailerSize - 1]byte

// Segmenter5 segments CPCS-SDUs per AAL5. The zero value is not ready;
// use NewSegmenter5.
type Segmenter5 struct {
	sdu     []byte
	off     int
	cells   int // remaining cells including the trailer cell
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
	s.active = true
	// Build the trailer now except for the CRC, which the final cell
	// computes over the whole PDU in one pass. The adapter's CRC unit
	// watches the byte stream as the DMA engine feeds it and costs no
	// engine cycles, so where the simulator computes it moves no
	// simulated time.
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
	// Zero the pad. Besides the final cell, the penultimate one holds pad
	// when len(sdu) % 48 is 41–47: the trailer does not fit beside the
	// SDU's last bytes, so the pad starts there. The payload array may be
	// a recycled cell's, so every pad byte is written.
	clear(payload[n:])
	if !last {
		s.cells--
		return atm.PTUser0, false, nil
	}
	// Final cell: the trailer goes in the last 8 bytes. The CRC covers the
	// whole PDU but its own 4 bytes: the SDU bytes the earlier cells
	// carried, the pad that spilled into the penultimate cell (zero), and
	// this cell's first 44 bytes. A one-cell frame has only the last.
	copy(payload[atm.PayloadSize-trailerSize:], s.trailer[:4])
	reg := uint32(0xffff_ffff)
	if carried := s.off - n; carried > 0 {
		spill := (CellsForSDU5(len(s.sdu))-1)*atm.PayloadSize - carried
		reg = crc.CRC32Update(reg, s.sdu[:carried])
		reg = crc.CRC32Update(reg, zeroPad[:spill])
	}
	reg = crc.CRC32Update(reg, payload[:atm.PayloadSize-4])
	binary.BigEndian.PutUint32(payload[atm.PayloadSize-4:], reg^0xffff_ffff)
	s.cells = 0
	s.active = false
	s.sdu = nil
	return atm.PTUserEnd, true, nil
}

// Reassembler5 reassembles AAL5 CPCS-PDUs from in-order cell payloads.
type Reassembler5 struct {
	buf      []byte
	maxFrame int
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
		r.cells = 0
	}
	r.buf = append(r.buf, payload[:]...)
	r.cells++
	if !pt.EndOfFrame() {
		return nil, nil
	}
	// Last cell: verify the trailer, with one CRC pass over the frame.
	n := len(r.buf)
	wantCRC := binary.BigEndian.Uint32(r.buf[n-4:])
	gotCRC := crc.CRC32Update(0xffff_ffff, r.buf[:n-4]) ^ 0xffff_ffff
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
