package aal

import (
	"encoding/binary"
	"fmt"

	"repro/internal/atm"
	"repro/internal/crc"
	"repro/internal/metrics"
)

// AAL3/4 wire format (I.363.3).
//
// Each cell carries a SAR-PDU filling the entire 48-byte payload:
//
//	ST (2 bits) | SN (4 bits) | MID (10 bits) | payload (44) | LI (6 bits) | CRC-10 (10 bits)
//
// The CPCS-PDU inside those 44-byte payloads is:
//
//	CPI (1) | BTag (1) | BASize (2) || SDU || pad to 4n || AL (1) | ETag (1) | Length (2)
//
// Compared with AAL5 this costs 4 bytes of every cell plus 8 bytes of
// envelope — the per-cell tax the efficiency experiments quantify — but it
// detects cell loss immediately via the 4-bit sequence number rather than at
// frame end, and the MID field can multiplex frames on one VC (not modelled
// here; the interface uses one frame at a time per VC, as the Bellcore board
// did).

// Segment types.
const (
	stCOM = 0b00 // continuation of message
	stEOM = 0b01 // end of message
	stBOM = 0b10 // beginning of message
	stSSM = 0b11 // single-segment message
)

const (
	sarHeaderSize  = 2
	sarTrailerSize = 2
	sarPayload     = 44 // == atm.PayloadSize - sarHeaderSize - sarTrailerSize
	cpcsEnvelope   = 8  // 4-byte header + 4-byte trailer
)

// Segmenter34 segments CPCS-SDUs per AAL3/4.
type Segmenter34 struct {
	// MID is the multiplexing identifier stamped on every cell of every
	// frame. Zero is fine for a single-frame-per-VC interface.
	MID uint16

	cpcs   []byte // CPCS-PDU being drained (header+SDU+pad+trailer)
	off    int
	sn     uint8 // next sequence number, mod 16
	btag   uint8 // next frame's BTag/ETag value
	active bool
}

// NewSegmenter34 returns an AAL3/4 segmenter.
func NewSegmenter34() *Segmenter34 { return &Segmenter34{} }

// Type implements Segmenter.
func (s *Segmenter34) Type() Type { return AAL34 }

// CellsForSDU34 returns the cells an n-byte SDU occupies under AAL3/4:
// the CPCS envelope plus padding, split into 44-byte SAR payloads.
func CellsForSDU34(n int) int {
	padded := (n + 3) &^ 3
	total := padded + cpcsEnvelope
	return (total + sarPayload - 1) / sarPayload
}

// Begin implements Segmenter.
func (s *Segmenter34) Begin(sdu []byte) (int, error) {
	if len(sdu) == 0 {
		return 0, ErrEmptySDU
	}
	if len(sdu) > MaxSDU {
		return 0, ErrSDUTooLarge
	}
	padded := (len(sdu) + 3) &^ 3
	total := padded + cpcsEnvelope
	// Build the CPCS-PDU. This buffer is reused across frames.
	if cap(s.cpcs) < total {
		s.cpcs = make([]byte, total)
	}
	s.cpcs = s.cpcs[:total]
	s.cpcs[0] = 0      // CPI
	s.cpcs[1] = s.btag // BTag
	// BASize is the receiver's buffer-allocation hint; for unbuffered
	// message-mode service it equals the SDU length (I.363.3 §
	// allows BASize >= Length; using Length exactly also keeps 65535-byte
	// SDUs encodable, where the padded size would overflow the field).
	binary.BigEndian.PutUint16(s.cpcs[2:4], uint16(len(sdu)))
	copy(s.cpcs[4:], sdu)
	for i := 4 + len(sdu); i < 4+padded; i++ {
		s.cpcs[i] = 0
	}
	s.cpcs[total-4] = 0      // AL (alignment)
	s.cpcs[total-3] = s.btag // ETag
	binary.BigEndian.PutUint16(s.cpcs[total-2:], uint16(len(sdu)))
	s.btag++
	s.off = 0
	s.active = true
	return CellsForSDU34(len(sdu)), nil
}

// Next implements Segmenter.
func (s *Segmenter34) Next(payload *[atm.PayloadSize]byte) (atm.PT, bool, error) {
	if !s.active {
		return 0, false, ErrNoFrame
	}
	remaining := len(s.cpcs) - s.off
	var st uint8
	switch {
	case s.off == 0 && remaining <= sarPayload:
		st = stSSM
	case s.off == 0:
		st = stBOM
	case remaining <= sarPayload:
		st = stEOM
	default:
		st = stCOM
	}
	n := remaining
	if n > sarPayload {
		n = sarPayload
	}
	payload[0] = st<<6 | (s.sn&0xf)<<2 | byte(s.MID>>8&0x3)
	payload[1] = byte(s.MID)
	s.sn = (s.sn + 1) & 0xf
	copy(payload[2:2+n], s.cpcs[s.off:s.off+n])
	for i := 2 + n; i < 2+sarPayload; i++ {
		payload[i] = 0
	}
	s.off += n
	// LI occupies the top 6 bits of byte 46; CRC-10 fills the low 10
	// bits of bytes 46..47.
	payload[46] = byte(n) << 2
	payload[47] = 0
	crc.CRC10Fill(payload[:])
	done := s.off == len(s.cpcs)
	if done {
		s.active = false
	}
	// AAL3/4 does not use the PT AAU bit; frame boundaries live in ST.
	return atm.PTUser0, done, nil
}

// Reassembler34 reassembles AAL3/4 frames, checking per-cell CRC-10 and
// sequence-number continuity so that cell loss is detected at the cell where
// it happens rather than at frame end.
type Reassembler34 struct {
	buf      []byte
	maxFrame int
	expectSN uint8
	inFrame  bool
	cells    int
	vst      *metrics.VCStats
	clock    func() int64 // nil = no staleness tracking
	lastPush int64
	res      Result // the completed frame Push hands out
}

// SetVCStats attaches the connection's telemetry row; per-cell CRC-10
// failures, sequence-detected cell losses and CPCS envelope mismatches are
// then counted inline as the reassembler detects them.
func (r *Reassembler34) SetVCStats(s *metrics.VCStats) { r.vst = s }

// SetClock implements StaleReaper.
func (r *Reassembler34) SetClock(now func() int64) { r.clock = now }

// Busy implements StaleReaper.
func (r *Reassembler34) Busy() bool { return r.inFrame }

// ExpireStale implements StaleReaper: a partial frame whose last cell
// arrived at or before olderThan is aborted and counted as a reassembly
// timeout.
func (r *Reassembler34) ExpireStale(olderThan int64) int {
	if !r.inFrame || r.lastPush > olderThan {
		return 0
	}
	r.Abort()
	r.vst.IncReassemblyTimeout()
	r.vst.Drop(metrics.DropReassemblyTimeout)
	return 1
}

// NewReassembler34 returns an AAL3/4 reassembler with the given frame-buffer
// bound in bytes (0 selects the maximum legal frame).
func NewReassembler34(maxFrame int) *Reassembler34 {
	if maxFrame <= 0 {
		maxFrame = MaxSDU + cpcsEnvelope + sarPayload + 4
	}
	return &Reassembler34{buf: make([]byte, 0, maxFrame), maxFrame: maxFrame}
}

// Type implements Reassembler.
func (r *Reassembler34) Type() Type { return AAL34 }

// Abort implements Reassembler.
func (r *Reassembler34) Abort() {
	r.buf = r.buf[:0]
	r.inFrame = false
	r.cells = 0
}

// Push implements Reassembler.
func (r *Reassembler34) Push(payload *[atm.PayloadSize]byte, pt atm.PT) (*Result, error) {
	if !pt.User() {
		return nil, ErrBadSegType
	}
	if r.clock != nil {
		r.lastPush = r.clock()
	}
	if !crc.CRC10Check(payload[:]) {
		// Corrupt SAR-PDU: an isolated bad cell costs only itself, but
		// one arriving mid-frame kills the whole frame in progress — the
		// distinction the per-VC stats keep.
		if r.inFrame {
			r.vst.IncMidFrameKill()
		}
		r.Abort()
		r.vst.IncCRCError()
		return nil, ErrBadCellCRC
	}
	st := payload[0] >> 6
	sn := payload[0] >> 2 & 0xf
	li := int(payload[46] >> 2)
	// I.363.3: BOM and COM segments are full; EOM and SSM segments carry
	// at least the 4-byte CPCS trailer.
	full := st == stBOM || st == stCOM
	if li > sarPayload || (full && li != sarPayload) || (!full && li < 4) {
		r.Abort()
		r.vst.IncLengthError()
		return nil, fmt.Errorf("%w: LI %d", ErrBadLength, li)
	}

	switch st {
	case stBOM, stSSM:
		if r.inFrame {
			// New beginning mid-frame means we lost the previous EOM.
			r.Abort()
			r.vst.IncLostCells()
			r.startFrame(sn, payload, li)
			if st == stSSM {
				res, err := r.finish()
				if err != nil {
					return nil, err
				}
				return res, ErrLostCell
			}
			return nil, ErrLostCell
		}
		r.startFrame(sn, payload, li)
		if st == stSSM {
			return r.finish()
		}
		return nil, nil
	case stCOM, stEOM:
		if !r.inFrame {
			return nil, ErrNoFrame
		}
		if sn != r.expectSN {
			r.Abort()
			r.vst.IncLostCells()
			return nil, ErrLostCell
		}
		if len(r.buf)+li > r.maxFrame {
			r.Abort()
			return nil, ErrFrameTooLong
		}
		r.buf = append(r.buf, payload[2:2+li]...)
		r.expectSN = (sn + 1) & 0xf
		r.cells++
		if st == stEOM {
			return r.finish()
		}
		return nil, nil
	default:
		panic("unreachable: 2-bit segment type")
	}
}

func (r *Reassembler34) startFrame(sn uint8, payload *[atm.PayloadSize]byte, li int) {
	r.inFrame = true
	r.expectSN = (sn + 1) & 0xf
	r.buf = append(r.buf[:0], payload[2:2+li]...)
	r.cells = 1
}

// finish validates the CPCS envelope and extracts the SDU.
func (r *Reassembler34) finish() (*Result, error) {
	defer r.Abort()
	b := r.buf
	if len(b) < cpcsEnvelope {
		r.vst.IncLengthError()
		return nil, ErrBadLength
	}
	btag := b[1]
	baSize := int(binary.BigEndian.Uint16(b[2:4]))
	etag := b[len(b)-3]
	length := int(binary.BigEndian.Uint16(b[len(b)-2:]))
	if btag != etag {
		r.vst.IncLengthError()
		return nil, fmt.Errorf("%w: BTag %d ETag %d", ErrBadTag, btag, etag)
	}
	padded := len(b) - cpcsEnvelope
	if baSize != length {
		r.vst.IncLengthError()
		return nil, fmt.Errorf("%w: BASize %d, Length %d", ErrBadLength, baSize, length)
	}
	if length == 0 || padded != (length+3)&^3 {
		// The pad is what aligns the SDU to a 4-byte boundary, no more.
		r.vst.IncLengthError()
		return nil, fmt.Errorf("%w: Length %d, padded payload %d", ErrBadLength, length, padded)
	}
	// The SDU stays in the frame buffer: the deferred Abort only rewinds
	// its length, and the next Push is the first to overwrite it.
	r.res = Result{SDU: b[4 : 4+length], Cells: r.cells}
	return &r.res, nil
}
