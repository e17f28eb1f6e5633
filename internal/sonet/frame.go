package sonet

import (
	"crypto/subtle"
	"errors"
	"fmt"

	"repro/internal/units"
)

// Rate selects the SONET signal the framer generates.
type Rate uint8

const (
	// STS3c is the 155.52 Mb/s signal the interface shipped with.
	STS3c Rate = iota
	// STS12c is the 622.08 Mb/s signal the architecture targeted.
	STS12c
)

// String implements fmt.Stringer.
func (r Rate) String() string {
	switch r {
	case STS3c:
		return "STS-3c"
	case STS12c:
		return "STS-12c"
	default:
		return fmt.Sprintf("Rate(%d)", uint8(r))
	}
}

// N returns the STS multiplier (3 or 12).
func (r Rate) N() int {
	if r == STS12c {
		return 12
	}
	return 3
}

// PayloadRate returns the ATM-visible payload rate (cells ride here).
func (r Rate) PayloadRate() units.BitRate {
	if r == STS12c {
		return units.STS12cPayload
	}
	return units.STS3cPayload
}

// Geometry, all in bytes. A SONET frame is 9 rows by 90·N columns, 8000
// frames per second.
const (
	rows      = 9
	frameRate = 8000 // frames per second, fixed across all STS levels
	// FramePeriodNs is 125 µs in nanoseconds.
	FramePeriodNs = 125_000
)

// Geometry describes the byte layout for a rate.
type Geometry struct {
	N           int // STS level
	Cols        int // total columns: 90N
	TOHCols     int // transport overhead columns: 3N
	FixedStuff  int // fixed-stuff columns inside the SPE: N/3 - 1
	PayloadCols int // columns carrying ATM cells
	FrameBytes  int // total serialized frame size: 9 * Cols
	PayloadPer  int // payload bytes per frame
}

// Geom returns the layout for rate r.
func Geom(r Rate) Geometry {
	n := r.N()
	g := Geometry{
		N:          n,
		Cols:       90 * n,
		TOHCols:    3 * n,
		FixedStuff: n/3 - 1,
	}
	g.PayloadCols = g.Cols - g.TOHCols - 1 - g.FixedStuff // 1 column of POH
	g.FrameBytes = rows * g.Cols
	g.PayloadPer = rows * g.PayloadCols
	return g
}

// Overhead byte values.
const (
	byteA1 = 0xf6 // framing
	byteA2 = 0x28 // framing
	// pointerValue is the fixed H1/H2 pointer this model transmits: SPE
	// aligned to the frame (see package doc for the simplification note).
	// 0x6_00a is new-data-flag 0110 + pointer bits, kept constant.
	byteH1 = 0x62
	byteH2 = 0x0a
	// concatenation indication carried in H1/H2 of STS paths 2..N.
	byteH1Concat = 0x93
	byteH2Concat = 0xff
)

// CellSource supplies the next 53 bytes of cell stream when the framer needs
// them. It must always produce a cell (insert idle cells when there is no
// traffic); the SONET payload has no gaps.
type CellSource interface {
	NextCell(dst []byte)
}

// Framer builds serialized SONET frames carrying a continuous ATM cell
// stream. Cells cross frame boundaries, exactly as on the wire.
//
// Everything after the row-1 section overhead is scrambled by XORing it in
// place with the frame keystream (the frame-synchronous scrambler's output,
// the same every frame). The next frame's B1 is the BIP-8 of the scrambled
// frame, and BIP-8 is linear in the bytes it covers, so it is computed
// without a pass over the scrambled frame: the parity of the transport
// overhead columns, XOR the SPE's row fold (which is also the next frame's
// B3), XOR the keystream's own parity.
type Framer struct {
	geom     Geometry
	cs       CellScrambler
	src      CellSource
	cellBuf  [53]byte
	cellOff  int    // bytes of cellBuf already emitted; 53 = need a new cell
	stream   []byte // per-frame staging for the contiguous cell stream
	frameNo  uint64
	ksParity byte // BIP-8 of the frame keystream at this rate
	prevB1   byte // BIP-8 of previous scrambled frame
	prevB3   byte // BIP-8 of previous SPE
}

// NewFramer returns a framer for rate r drawing cells from src.
func NewFramer(r Rate, src CellSource) *Framer {
	if src == nil {
		panic("sonet: nil cell source")
	}
	g := Geom(r)
	return &Framer{geom: g, src: src, cellOff: 53,
		stream: make([]byte, g.PayloadPer), ksParity: keystreamParity(r)}
}

// Geometry returns the framer's layout.
func (f *Framer) Geometry() Geometry { return f.geom }

// NextFrame serializes the next 125 µs frame into dst, which must be at
// least Geometry().FrameBytes long. It returns the frame length.
func (f *Framer) NextFrame(dst []byte) int {
	g := f.geom
	if len(dst) < g.FrameBytes {
		panic("sonet: frame buffer too small")
	}
	frame := dst[:g.FrameBytes]
	for i := range frame {
		frame[i] = 0
	}

	// Transport overhead, row-major. Row 1: A1×N A2×N J0/Z0×N.
	for i := 0; i < g.N; i++ {
		frame[i] = byteA1
		frame[g.N+i] = byteA2
		frame[2*g.N+i] = byte(i + 1) // J0/Z0 carries the STS number
	}
	// Row 2 col 0: B1, section BIP-8 over the previous scrambled frame.
	frame[g.Cols] = f.prevB1
	// Row 4: H1 H2 pointer bytes; first pair carries the fixed pointer,
	// the rest concatenation indications. H3 action bytes stay zero.
	row4 := 3 * g.Cols
	frame[row4] = byteH1
	frame[row4+g.N] = byteH2
	for i := 1; i < g.N; i++ {
		frame[row4+i] = byteH1Concat
		frame[row4+g.N+i] = byteH2Concat
	}

	// Path overhead column (first SPE column): J1 trace, B3, C2.
	pohCol := g.TOHCols
	frame[pohCol] = 0x01            // J1: static trace byte
	frame[g.Cols+pohCol] = f.prevB3 // B3: path BIP-8 over previous SPE
	frame[2*g.Cols+pohCol] = 0x13   // C2: payload label "ATM"

	// Payload columns: fill with the continuous cell stream. Payload
	// occupies columns [TOHCols+1+FixedStuff, Cols) of every row. The
	// frame's slice of the stream is staged contiguously (whole cells land
	// directly in the staging buffer; only boundary cells pass through
	// cellBuf) and then block-copied into the rows.
	payStart := g.TOHCols + 1 + g.FixedStuff
	stream := f.stream
	n := copy(stream, f.cellBuf[f.cellOff:])
	for n+53 <= len(stream) {
		f.src.NextCell(stream[n : n+53])
		// Scramble the info field only; header in clear.
		f.cs.Scramble(stream[n+5 : n+53])
		n += 53
	}
	if n < len(stream) {
		f.src.NextCell(f.cellBuf[:])
		f.cs.Scramble(f.cellBuf[5:])
		f.cellOff = copy(stream[n:], f.cellBuf[:])
	} else {
		f.cellOff = 53
	}
	var toh, b3 byte
	for row := 0; row < rows; row++ {
		base := row * g.Cols
		copy(frame[base+payStart:base+g.Cols], stream[row*g.PayloadCols:])
		// B3 covers the SPE (POH column through the row end), and B1
		// adds the TOH columns; XOR folds row by row instead of staging
		// a contiguous SPE copy.
		toh ^= bip8(frame[base : base+pohCol])
		b3 ^= bip8(frame[base+pohCol : base+g.Cols])
	}
	f.prevB3 = b3

	// Frame-synchronous scrambling: everything except row-1 TOH.
	scr := frame[g.TOHCols:]
	subtle.XORBytes(scr, scr, frameKeystream[:])
	f.prevB1 = toh ^ b3 ^ f.ksParity
	f.frameNo++
	return g.FrameBytes
}

// Frames generated so far.
func (f *Framer) Frames() uint64 { return f.frameNo }

// DeframerStats counts receive-side anomalies.
type DeframerStats struct {
	Frames      uint64
	LOSFrames   uint64 // frames with bad A1/A2 alignment
	B1Errors    uint64 // section BIP mismatches
	B3Errors    uint64 // path BIP mismatches
	PointerErrs uint64 // H1/H2 not the expected fixed value
}

// Deframer parses serialized frames, verifies overhead, and hands the
// descrambled payload cell stream to a Delineator.
//
// One pass descrambles each received frame into a scratch copy (the
// received bytes XOR the frame keystream). The B1 expected in the next
// frame is the BIP-8 of the frame as received; as in the Framer, it is
// assembled from the clear copy's transport-overhead parity, its SPE row
// fold (the next frame's expected B3) and the keystream's parity. A frame
// that fails A1/A2 alignment is dropped before any of this and leaves both
// expectations as they were.
type Deframer struct {
	geom     Geometry
	del      *Delineator
	stats    DeframerStats
	ksParity byte // BIP-8 of the frame keystream at this rate
	expB1    byte
	expB3    byte
	buf      []byte // scratch: descrambled frame copy
}

// NewDeframer returns a deframer for rate r delivering cells to del.
func NewDeframer(r Rate, del *Delineator) *Deframer {
	if del == nil {
		panic("sonet: nil delineator")
	}
	g := Geom(r)
	return &Deframer{geom: g, del: del, buf: make([]byte, g.FrameBytes),
		ksParity: keystreamParity(r)}
}

// Stats returns receive counters.
func (d *Deframer) Stats() DeframerStats { return d.stats }

// ErrShortFrame reports a frame shorter than the geometry requires.
var ErrShortFrame = errors.New("sonet: short frame")

// PushFrame consumes one serialized frame.
func (d *Deframer) PushFrame(frame []byte) error {
	g := d.geom
	if len(frame) < g.FrameBytes {
		return ErrShortFrame
	}
	frame = frame[:g.FrameBytes]
	d.stats.Frames++

	// Check alignment before descrambling (A1/A2 are never scrambled).
	for i := 0; i < g.N; i++ {
		if frame[i] != byteA1 || frame[g.N+i] != byteA2 {
			d.stats.LOSFrames++
			return nil // no byte alignment: drop the whole frame
		}
	}
	f := d.buf
	copy(f[:g.TOHCols], frame)
	subtle.XORBytes(f[g.TOHCols:], frame[g.TOHCols:], frameKeystream[:])

	pohCol := g.TOHCols
	if d.stats.Frames > 1 {
		if f[g.Cols] != d.expB1 {
			d.stats.B1Errors++
		}
		if f[g.Cols+pohCol] != d.expB3 {
			d.stats.B3Errors++
		}
	}

	row4 := 3 * g.Cols
	if f[row4] != byteH1 || f[row4+g.N] != byteH2 {
		d.stats.PointerErrs++
	}

	// Fold the overhead columns and the SPE row by row (BIP-8 is
	// position-independent, so no contiguous SPE copy is needed) and feed
	// payload bytes to the delineator.
	payStart := g.TOHCols + 1 + g.FixedStuff
	var toh, b3 byte
	for row := 0; row < rows; row++ {
		base := row * g.Cols
		toh ^= bip8(f[base : base+pohCol])
		b3 ^= bip8(f[base+pohCol : base+g.Cols])
	}
	d.expB1 = toh ^ b3 ^ d.ksParity
	d.expB3 = b3
	for row := 0; row < rows; row++ {
		base := row * g.Cols
		d.del.Push(f[base+payStart : base+g.Cols])
	}
	return nil
}
