// Package sonet implements the physical-layer framing substrate under the
// ATM host interface: STS-3c / STS-12c frame generation and parsing, the two
// scramblers the standards require, and HEC-based cell delineation
// (ITU-T I.432 / G.707).
//
// The interface board this reproduces used SONET framer hardware; the cell
// stream the protocol engines see is what comes out of this package.  One
// deliberate simplification is documented in DESIGN.md: the synchronous
// payload envelope is modelled frame-aligned (a fixed pointer value) rather
// than floating, which preserves payload rate and delineation behaviour
// while avoiding pointer-justification machinery the paper's analysis never
// touches.
package sonet

import "encoding/binary"

// The frame-synchronous SONET scrambler has generator 1 + x⁶ + x⁷ and is
// reset to all ones at the first byte after the row-1 section overhead of
// every frame. It whitens the line so clock recovery works, and it is its
// own inverse. Because the register restarts from the same state every
// frame, its output is data-independent and identical frame after frame, so
// the framer and the deframer XOR each frame with one precomputed keystream
// table instead of walking the register. The tests pin the table against
// the bit-serial register walk.

// frameKeystreamMax covers the largest region a framer scrambles: an
// STS-12c frame minus its row-1 section overhead columns.
const frameKeystreamMax = rows*90*12 - 3*12

var (
	// frameKeystream[i] is the mask byte the LFSR produces for the i-th
	// byte after the frame-start reset.
	frameKeystream [frameKeystreamMax]byte
	// frameKsParity holds the BIP-8 of the keystream one whole frame is
	// scrambled with, for STS-3c ([0]) and STS-12c ([1]). B1 is linear in
	// the frame bytes, so it splits into the clear frame's parity and this.
	frameKsParity [2]byte
)

func init() {
	st := uint8(0x7f)
	for i := range frameKeystream {
		var mask uint8
		for bit := 0; bit < 8; bit++ {
			out := (st >> 6) & 1 // x⁷ tap
			mask = mask<<1 | out
			fb := ((st >> 6) ^ (st >> 5)) & 1 // x⁷ ⊕ x⁶
			st = st<<1&0x7f | fb
		}
		frameKeystream[i] = mask
	}
	for i, r := range [...]Rate{STS3c, STS12c} {
		g := Geom(r)
		frameKsParity[i] = bip8(frameKeystream[:g.FrameBytes-g.TOHCols])
	}
}

// keystreamParity returns frameKsParity's entry for rate r.
func keystreamParity(r Rate) byte {
	if r == STS12c {
		return frameKsParity[1]
	}
	return frameKsParity[0]
}

// CellScrambler is the self-synchronous x⁴³ + 1 scrambler applied to the
// 48-byte information field of every cell (headers stay in clear, which is
// what lets a hunting receiver check HECs before it has descrambler state).
// Being self-synchronous, a receiver's descrambler converges to the
// transmitter's state after 43 received bits regardless of how it was
// initialized.
//
// Each line bit is the data bit XOR the line bit 43 places earlier. The
// scrambler takes eight bytes per step as a big-endian word: the first 43
// bits' taps all come from the register s (the last 43 line bits), as
// s<<21, and the last 21 bits' taps lie 43 bits back inside the same word.
// So scrambling is t = in ^ s<<21, out = t ^ t>>43, and descrambling, whose
// taps are the received bits, is out = l ^ l>>43 ^ s<<21. The register then
// becomes the word's low 43 line bits. Bytes left over after the last whole
// word go one at a time: the key for a byte is bits 42..35 of the register.
// The tests pin both forms against the bit-serial reference.
type CellScrambler struct {
	state uint64 // low 43 bits hold the last 43 output (line) bits
}

const cellScramblerMask = 0x7ff_ffff_ffff // 43 bits

// Scramble transforms plaintext p in place into line bits.
func (s *CellScrambler) Scramble(p []byte) {
	st := s.state
	for len(p) >= 8 {
		t := binary.BigEndian.Uint64(p) ^ st<<21
		out := t ^ t>>43
		binary.BigEndian.PutUint64(p, out)
		st = out & cellScramblerMask
		p = p[8:]
	}
	for i, b := range p {
		out := b ^ byte(st>>35)
		st = st<<8&cellScramblerMask | uint64(out)
		p[i] = out
	}
	s.state = st
}

// Descramble transforms line bits p in place back into plaintext. The
// register shifts in the *received* bits, which is what makes the pair
// self-synchronizing.
func (s *CellScrambler) Descramble(p []byte) { s.descramble(p, p) }

// descramble writes the plaintext of line bits src into dst, which must be
// as long as src and may be src itself.
func (s *CellScrambler) descramble(dst, src []byte) {
	st := s.state
	dst = dst[:len(src)]
	for len(src) >= 8 {
		l := binary.BigEndian.Uint64(src)
		binary.BigEndian.PutUint64(dst, l^l>>43^st<<21)
		st = l & cellScramblerMask
		src, dst = src[8:], dst[8:]
	}
	for i, b := range src {
		dst[i] = b ^ byte(st>>35)
		st = st<<8&cellScramblerMask | uint64(b)
	}
	s.state = st
}

// bip8 computes even-parity BIP-8 over p: each bit of the result makes the
// corresponding bit position of p even-parity. SONET B1/B3 bytes carry this.
// Byte XOR is position-independent, so the fold runs a word at a time.
func bip8(p []byte) byte {
	var acc uint64
	for len(p) >= 8 {
		acc ^= binary.LittleEndian.Uint64(p)
		p = p[8:]
	}
	var b byte
	for _, x := range p {
		b ^= x
	}
	acc ^= acc >> 32
	acc ^= acc >> 16
	acc ^= acc >> 8
	return b ^ byte(acc)
}
