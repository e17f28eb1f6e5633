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
	// speKsParity holds the BIP-8 of the keystream over the SPE positions
	// alone, by rate: the clear SPE's parity (B3) is the received frame's,
	// XOR its transport overhead columns', XOR this.
	//
	// Both tables derive from frameKeystream, so init fills them after the
	// table. A package-level initializer would run before init and see a
	// keystream of zeros.
	speKsParity [2]byte
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
		// The keystream starts after row 1's overhead, so the transport
		// overhead columns of rows 2..9 are the ones it covers.
		p := frameKsParity[i]
		for row := 1; row < rows; row++ {
			off := row*g.Cols - g.TOHCols
			p ^= bip8(frameKeystream[off : off+g.TOHCols])
		}
		speKsParity[i] = p
	}
}

// keystreamParity returns frameKsParity's entry for rate r.
func keystreamParity(r Rate) byte { return frameKsParity[rateIndex(r)] }

// speKeystreamParity returns speKsParity's entry for rate r.
func speKeystreamParity(r Rate) byte { return speKsParity[rateIndex(r)] }

func rateIndex(r Rate) int {
	if r == STS12c {
		return 1
	}
	return 0
}

// cellScrambler is the self-synchronous x⁴³ + 1 scrambler applied to the
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
// becomes the word's low 43 line bits. An information field is exactly six
// words, so both forms take a fixed 48-byte array and run the six steps
// unrolled. The tests pin both against the bit-serial reference.
type cellScrambler struct {
	state uint64 // low 43 bits hold the last 43 output (line) bits
}

const cellScramblerMask = 0x7ff_ffff_ffff // 43 bits

// scramble transforms an information field in place into line bits.
func (s *cellScrambler) scramble(p *[48]byte) {
	st := scrambleWord(p[0:8], s.state)
	st = scrambleWord(p[8:16], st)
	st = scrambleWord(p[16:24], st)
	st = scrambleWord(p[24:32], st)
	st = scrambleWord(p[32:40], st)
	s.state = scrambleWord(p[40:48], st)
}

// scrambleWord scrambles the word at p[0:8] in place after register st and
// returns the register that follows it.
func scrambleWord(p []byte, st uint64) uint64 {
	t := binary.BigEndian.Uint64(p) ^ st<<21
	out := t ^ t>>43
	binary.BigEndian.PutUint64(p, out)
	return out & cellScramblerMask
}

// descramble writes the plaintext of the information field's line bits src
// into dst, which may be src itself. The register shifts in the *received*
// bits, which is what makes the pair self-synchronizing.
func (s *cellScrambler) descramble(dst, src *[48]byte) {
	st := descrambleWord(dst[0:8], src[0:8], s.state)
	st = descrambleWord(dst[8:16], src[8:16], st)
	st = descrambleWord(dst[16:24], src[16:24], st)
	st = descrambleWord(dst[24:32], src[24:32], st)
	st = descrambleWord(dst[32:40], src[32:40], st)
	s.state = descrambleWord(dst[40:48], src[40:48], st)
}

// descrambleWord writes the plaintext of the line word src[0:8] into
// dst[0:8] after register st and returns the register that follows it.
func descrambleWord(dst, src []byte, st uint64) uint64 {
	l := binary.BigEndian.Uint64(src)
	binary.BigEndian.PutUint64(dst, l^l>>43^st<<21)
	return l & cellScramblerMask
}

// bip8 computes even-parity BIP-8 over p: each bit of the result makes the
// corresponding bit position of p even-parity. SONET B1/B3 bytes carry this.
// Byte XOR is position-independent, so the fold runs a word at a time, four
// words per step into independent accumulators.
func bip8(p []byte) byte {
	var a0, a1, a2, a3 uint64
	for len(p) >= 32 {
		w := (*[32]byte)(p)
		a0 ^= binary.LittleEndian.Uint64(w[0:8])
		a1 ^= binary.LittleEndian.Uint64(w[8:16])
		a2 ^= binary.LittleEndian.Uint64(w[16:24])
		a3 ^= binary.LittleEndian.Uint64(w[24:32])
		p = p[32:]
	}
	acc := a0 ^ a1 ^ a2 ^ a3
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
