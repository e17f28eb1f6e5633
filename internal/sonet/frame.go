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
// Each frame is built once, in place in the caller's buffer: the overhead
// columns of every row are cleared and set, and the payload columns are
// filled straight from the cell source. Everything after the row-1 section
// overhead is then scrambled by XORing it in place with the frame keystream
// (the frame-synchronous scrambler's output, the same every frame).
//
// BIP-8 is linear in the bytes it covers, so one fold of the clear frame
// gives both parities the next frame carries. The transport overhead
// columns hold fixed bytes and B1, so their parity is a per-rate constant
// XOR this frame's B1; the SPE's parity (the next B3) is the clear frame's
// XOR that. The next B1 covers the scrambled frame: the clear frame's
// parity XOR the keystream's own.
type Framer struct {
	geom     Geometry
	cs       cellScrambler
	src      CellSource
	cellBuf  [53]byte
	cellOff  int // bytes of cellBuf already emitted; 53 = need a new cell
	frameNo  uint64
	tohConst byte // BIP-8 of the transport overhead bytes other than B1
	ksParity byte // BIP-8 of the frame keystream at this rate
	prevB1   byte // BIP-8 of previous scrambled frame
	prevB3   byte // BIP-8 of previous SPE
}

// NewFramer returns a framer for rate r drawing cells from src.
func NewFramer(r Rate, src CellSource) *Framer {
	if src == nil {
		panic("sonet: nil cell source") // a wiring bug: no spec or wire byte reaches it
	}
	g := Geom(r)
	return &Framer{geom: g, src: src, cellOff: 53,
		tohConst: tohParity(g), ksParity: keystreamParity(r)}
}

// tohParity returns the BIP-8 of the transport overhead bytes the framer
// writes other than B1: A1, A2 and J0/Z0 in row 1, and the H1/H2 pointer and
// concatenation bytes in row 4. Every other overhead byte is zero.
func tohParity(g Geometry) byte {
	p := byte(byteH1 ^ byteH2)
	for i := 0; i < g.N; i++ {
		p ^= byteA1 ^ byteA2 ^ byte(i+1)
		if i > 0 {
			p ^= byteH1Concat ^ byteH2Concat
		}
	}
	return p
}

// Geometry returns the framer's layout.
func (f *Framer) Geometry() Geometry { return f.geom }

// NextFrame serializes the next 125 µs frame into dst, which must be at
// least Geometry().FrameBytes long. It returns the frame length.
func (f *Framer) NextFrame(dst []byte) int {
	g := f.geom
	if len(dst) < g.FrameBytes {
		panic("sonet: frame buffer too small") // a caller's bug: every caller sizes dst from Geometry
	}
	frame := dst[:g.FrameBytes]

	// Overhead and fixed-stuff columns are cleared row by row; the payload
	// columns [payStart, Cols) of every row carry the continuous cell
	// stream.
	payStart := g.TOHCols + 1 + g.FixedStuff
	for row := 0; row < rows; row++ {
		base := row * g.Cols
		clear(frame[base : base+payStart])
		f.fill(frame[base+payStart : base+g.Cols])
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

	clearParity := bip8(frame)
	f.prevB3 = clearParity ^ f.tohConst ^ f.prevB1

	// Frame-synchronous scrambling: everything except row-1 TOH.
	scr := frame[g.TOHCols:]
	subtle.XORBytes(scr, scr, frameKeystream[:])
	f.prevB1 = clearParity ^ f.ksParity
	f.frameNo++
	return g.FrameBytes
}

// fill writes the next len(p) bytes of the cell stream into p. Whole cells
// are drawn straight into p and their information fields scrambled there;
// a cell that crosses the end of p passes through cellBuf, and its tail
// opens the next fill.
func (f *Framer) fill(p []byte) {
	n := copy(p, f.cellBuf[f.cellOff:])
	f.cellOff += n
	for ; n+53 <= len(p); n += 53 {
		c := p[n : n+53]
		f.src.NextCell(c)
		f.cs.scramble((*[48]byte)(c[5:])) // info field only; header in clear
	}
	if n < len(p) {
		f.src.NextCell(f.cellBuf[:])
		f.cs.scramble((*[48]byte)(f.cellBuf[5:]))
		f.cellOff = copy(p[n:], f.cellBuf[:])
	}
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
// The received frame is never written. The few overhead bytes the checks
// read are descrambled one at a time, and each row's payload columns are
// descrambled into a scratch row in one pass and pushed to the delineator,
// which copies what it keeps. The B1 expected in the next frame is one
// BIP-8 fold of the frame as received. The B3 expected covers the clear
// SPE: by linearity, that fold XOR the received transport overhead columns'
// parity XOR the keystream's parity over the SPE. A frame that fails A1/A2
// alignment is dropped before any of this and leaves both expectations as
// they were.
type Deframer struct {
	geom        Geometry
	del         *Delineator
	stats       DeframerStats
	speKsParity byte // BIP-8 of the frame keystream over the SPE positions
	expB1       byte
	expB3       byte
	row         []byte // scratch: one row's payload columns, descrambled
}

// NewDeframer returns a deframer for rate r delivering cells to del.
func NewDeframer(r Rate, del *Delineator) *Deframer {
	if del == nil {
		panic("sonet: nil delineator") // a wiring bug: no spec or wire byte reaches it
	}
	g := Geom(r)
	return &Deframer{geom: g, del: del, row: make([]byte, g.PayloadCols),
		speKsParity: speKeystreamParity(r)}
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
	// Every byte after row 1's section overhead is scrambled: the byte at
	// frame offset i is in the clear XOR ks[i-TOHCols].
	ks := frameKeystream[:g.FrameBytes-g.TOHCols]
	clearByte := func(i int) byte { return frame[i] ^ ks[i-g.TOHCols] }
	pohCol := g.TOHCols
	if d.stats.Frames > 1 {
		if clearByte(g.Cols) != d.expB1 {
			d.stats.B1Errors++
		}
		if clearByte(g.Cols+pohCol) != d.expB3 {
			d.stats.B3Errors++
		}
	}

	row4 := 3 * g.Cols
	if clearByte(row4) != byteH1 || clearByte(row4+g.N) != byteH2 {
		d.stats.PointerErrs++
	}

	payStart := g.TOHCols + 1 + g.FixedStuff
	var toh byte
	for row := 0; row < rows; row++ {
		base := row * g.Cols
		toh ^= bip8(frame[base : base+g.TOHCols])
		subtle.XORBytes(d.row, frame[base+payStart:base+g.Cols], ks[base+payStart-g.TOHCols:])
		d.del.Push(d.row)
	}
	// B1 covers the frame as received; B3 the clear SPE, which is the
	// frame less its transport overhead columns, descrambled.
	rxParity := bip8(frame)
	d.expB1 = rxParity
	d.expB3 = rxParity ^ toh ^ d.speKsParity
	return nil
}
