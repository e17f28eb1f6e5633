// Package crc implements the three cyclic redundancy checks the ATM host
// interface depends on:
//
//   - HEC: the 8-bit header error control over the first four header bytes
//     of every cell, generator x⁸+x²+x+1 with the ITU coset 0x55 added, able
//     to correct any single-bit header error;
//   - CRC-10: the per-cell SAR payload check used by AAL3/4, and by OAM and
//     RM cells, generator x¹⁰+x⁹+x⁵+x⁴+x+1;
//   - CRC-32: the AAL5 CPCS trailer check, the IEEE 802.3 polynomial applied
//     MSB-first with pre- and post-inversion, as I.363 specifies.
//
// Each check has a bitwise reference implementation and a fast
// implementation; the tests cross-validate them. The HEC's four header bytes
// go through four independent slicing tables at once (slicing-by-4). On
// amd64 hosts that have PCLMULQDQ, a CRC-32 or CRC-10 over 16 bytes or more
// runs through one carry-less-multiply kernel (crc32_amd64.s), which folds
// 16-byte blocks, folds a final partial block in registers and finishes with
// a Barrett reduction, so it reads no table; CRC-10 takes it with its
// generator shifted up to degree 32. Shorter inputs, and every input
// elsewhere, go eight bytes per step through slicing tables (CRC-32) or a
// byte per step through a byte table (CRC-10). On the real adapter these
// are dedicated hardware, so the simulator charges them zero engine cycles
// — but the bytes still have to be right for frames to survive the wire
// model.
package crc

// ---------------------------------------------------------------------------
// HEC (CRC-8 over the first 4 header bytes)

// hecPoly is x⁸+x²+x+1 with the x⁸ term implicit.
const hecPoly = 0x07

// HECCoset is the fixed pattern XORed into the HEC register after
// computation, per ITU-T I.432.  It improves cell delineation robustness
// against slips in an all-zeros header stream.
const HECCoset = 0x55

// hecSlice holds the slicing-by-4 tables: hecSlice[k][b] is the CRC of
// byte b followed by k zero bytes (hecSlice[0] is the plain byte table).
// The register is only eight bits wide, so the CRC of a four-byte header is
// linear in its bytes: hecSlice[3][h0] ^ hecSlice[2][h1] ^ hecSlice[1][h2]
// ^ hecSlice[0][h3], four independent loads instead of four dependent ones.
var hecSlice [4][256]byte

func init() {
	for i := 0; i < 256; i++ {
		crc := byte(i)
		for b := 0; b < 8; b++ {
			if crc&0x80 != 0 {
				crc = crc<<1 ^ hecPoly
			} else {
				crc <<= 1
			}
		}
		hecSlice[0][i] = crc
	}
	for k := 1; k < 4; k++ {
		for i := 0; i < 256; i++ {
			hecSlice[k][i] = hecSlice[0][hecSlice[k-1][i]]
		}
	}
}

// HEC computes the header error control byte over the four bytes h.
func HEC(h [4]byte) byte {
	return hecSlice[3][h[0]] ^ hecSlice[2][h[1]] ^ hecSlice[1][h[2]] ^
		hecSlice[0][h[3]] ^ HECCoset
}

// HECBitwise is the reference bit-serial HEC: FuzzHECCheck and the HEC
// tests validate the table against it.
func HECBitwise(h [4]byte) byte {
	var crc byte
	for _, by := range h {
		crc ^= by
		for b := 0; b < 8; b++ {
			if crc&0x80 != 0 {
				crc = crc<<1 ^ hecPoly
			} else {
				crc <<= 1
			}
		}
	}
	return crc ^ HECCoset
}

// HECOK reports whether the five bytes at h[0:5] carry an exactly matching
// HEC (no single-bit correction attempted). This is the check cell
// delineation performs on every candidate byte offset while hunting, kept
// copy-free so the sliding-window loop stays four independent table loads
// per offset.
func HECOK(h []byte) bool {
	_ = h[4]
	return hecSlice[3][h[0]]^hecSlice[2][h[1]]^hecSlice[1][h[2]]^
		hecSlice[0][h[3]]^HECCoset == h[4]
}

// hecSyndrome returns the HEC syndrome for a received 5-byte header: zero
// means the header is error-free.
func hecSyndrome(h [5]byte) byte {
	var first [4]byte
	copy(first[:], h[:4])
	return HEC(first) ^ h[4]
}

// singleBitSyndrome[s] is the bit position (0..39, MSB of byte 0 = 0) whose
// single flip produces syndrome s, or -1 if no single-bit error does.
var singleBitSyndrome [256]int8

func init() {
	for i := range singleBitSyndrome {
		singleBitSyndrome[i] = -1
	}
	// Flip each of the 40 header bits in an otherwise correct header and
	// record the syndrome it produces. Syndromes are linear, so the map
	// holds for any header.
	base := [5]byte{0, 0, 0, 0, HEC([4]byte{})}
	for bit := 0; bit < 40; bit++ {
		h := base
		h[bit/8] ^= 0x80 >> (bit % 8)
		s := hecSyndrome(h)
		if s == 0 {
			continue // cannot happen for a nonzero flip
		}
		singleBitSyndrome[s] = int8(bit)
	}
}

// HECCheck verifies a received 5-byte header. It returns:
//
//	ok=true, corrected=false         — header valid as received;
//	ok=true, corrected=true          — a single-bit error was corrected
//	                                   in place;
//	ok=false                         — multi-bit error, discard the cell.
func HECCheck(h *[5]byte) (ok, corrected bool) {
	s := hecSyndrome(*h)
	if s == 0 {
		return true, false
	}
	if bit := singleBitSyndrome[s]; bit >= 0 {
		h[bit/8] ^= 0x80 >> (bit % 8)
		return true, true
	}
	return false, false
}

// ---------------------------------------------------------------------------
// CRC-10 (AAL3/4 SAR payload)

// crc10Poly is x¹⁰+x⁹+x⁵+x⁴+x+1, every term included: 0b110_0011_0011.
const crc10Poly = 0x633

var crc10Table [256]uint16

func init() {
	for i := 0; i < 256; i++ {
		crc := uint16(i) << 2
		for b := 0; b < 8; b++ {
			if crc&0x200 != 0 {
				crc = crc<<1 ^ crc10Poly
			} else {
				crc <<= 1
			}
			crc &= 0x3ff
		}
		crc10Table[i] = crc
	}
}

// crc10Consts drives the carry-less-multiply kernel for CRC-10. With
// P′ = P·x²², of degree 32, (M·x³²) mod P′ = x²²·((M·x¹⁰) mod P) for any
// message M, so the kernel advances a CRC-10 register held in the top ten
// bits of its 32.
var crc10Consts = newClmulConsts(crc10Poly << 22)

// CRC10 computes the 10-bit SAR check over p, initial register zero.
func CRC10(p []byte) uint16 { return crc10Bytes(0, p) }

// crc10Bytes advances the register over the bytes of p: in one kernel call
// from foldMin bytes on, else a byte per step through the table.
func crc10Bytes(crc uint16, p []byte) uint16 {
	if len(p) >= foldMin {
		return uint16(clmulCRC(uint32(crc)<<22, p, &crc10Consts) >> 22)
	}
	for _, b := range p {
		crc = (crc<<8)&0x3ff ^ crc10Table[byte(crc>>2)^b]
	}
	return crc
}

// CRC10Bitwise is the reference bit-serial CRC-10, the oracle of FuzzCRC10
// and the CRC-10 tests.
func CRC10Bitwise(p []byte) uint16 {
	var crc uint16
	for _, by := range p {
		for b := 0; b < 8; b++ {
			bit := (by >> (7 - b)) & 1
			top := (crc >> 9) & 1
			crc = (crc << 1) & 0x3ff
			if top^uint16(bit) != 0 {
				crc ^= crc10Poly & 0x3ff
			}
		}
	}
	return crc
}

// crc10Bits advances the register over the most-significant nbits bits of
// p. The fewer than eight bits past the last whole byte are walked one at a
// time, without a branch on the data.
func crc10Bits(crc uint16, p []byte, nbits int) uint16 {
	n := nbits / 8
	crc = crc10Bytes(crc, p[:n])
	for b := 0; b < nbits%8; b++ {
		top := (crc>>9 ^ uint16(p[n]>>(7-b))) & 1
		crc = (crc<<1)&0x3ff ^ crc10Poly&0x3ff&-top
	}
	return crc
}

// CRC10Fill computes the CRC-10 over all but the final 10 bits of pdu (the
// covered region is not byte-aligned: in an AAL3/4 SAR-PDU the 6-bit LI
// field shares the last two bytes with the CRC) and writes it into those
// final 10 bits. A receiver checking the completed PDU with CRC10Check sees
// it verify.
func CRC10Fill(pdu []byte) {
	if len(pdu) < 2 {
		panic("crc: CRC10Fill needs at least 2 bytes")
	}
	n := len(pdu)
	c := crc10Bits(0, pdu, n*8-10)
	pdu[n-2] = pdu[n-2]&^0x03 | byte(c>>8)
	pdu[n-1] = byte(c)
}

// CRC10Check reports whether a PDU whose trailing 10 bits carry its CRC-10
// (as written by CRC10Fill) verifies. It tests the residue: with M the
// covered bits and C the field, the CRC-10 of the whole PDU is
// (M·x¹⁰ + C)·x¹⁰ ≡ (CRC(M) + C)·x¹⁰ mod P. P has a constant term, so x is
// invertible mod P, and that is zero exactly when C = CRC(M). So the check
// runs over whole bytes and walks no bits.
func CRC10Check(pdu []byte) bool {
	return len(pdu) >= 2 && CRC10(pdu) == 0
}

// ---------------------------------------------------------------------------
// CRC-32 (AAL5 CPCS)

// crc32Poly is the IEEE 802.3 polynomial, MSB-first form.
const crc32Poly = 0x04c11db7

var crc32Table [256]uint32

// crc32Slice holds the slicing-by-8 tables: crc32Slice[k][b] is the CRC
// contribution of byte b positioned k+1 bytes before the end of an 8-byte
// block (crc32Slice[0] is the plain byte table). Processing eight input
// bytes then costs eight table loads and XORs instead of eight dependent
// shift-and-lookup steps — the classic Intel slicing-by-8 scheme, here in
// the MSB-first (non-reflected) form I.363's AAL5 CRC uses.
var crc32Slice [8][256]uint32

func init() {
	for i := 0; i < 256; i++ {
		crc := uint32(i) << 24
		for b := 0; b < 8; b++ {
			if crc&0x8000_0000 != 0 {
				crc = crc<<1 ^ crc32Poly
			} else {
				crc <<= 1
			}
		}
		crc32Table[i] = crc
	}
	crc32Slice[0] = crc32Table
	for k := 1; k < 8; k++ {
		for i := 0; i < 256; i++ {
			prev := crc32Slice[k-1][i]
			crc32Slice[k][i] = prev<<8 ^ crc32Table[byte(prev>>24)]
		}
	}
}

// CRC32Update advances a running (uncomplemented) CRC register over p.
// Start from 0xffffffff; complement the final value to get the transmitted
// CRC. The AAL5 reassembler makes one call per frame, over the whole
// CPCS-PDU but its last four bytes; the segmenter, which holds the PDU in
// pieces, makes one per piece. On amd64 hosts with PCLMULQDQ an input of
// foldMin (16) bytes or more goes to the carry-less-multiply kernel in one
// call; shorter inputs, and every input elsewhere, go through the
// slicing-by-8 loop. The tests pin both paths against the bit-serial
// reference.
func CRC32Update(crc uint32, p []byte) uint32 {
	if len(p) >= foldMin {
		return clmulCRC(crc, p, &crc32Consts)
	}
	return crc32Slicing(crc, p)
}

// crc32Slicing advances the register over p eight bytes per step through
// the slicing-by-8 tables; the remainder falls back to the byte table.
func crc32Slicing(crc uint32, p []byte) uint32 {
	for len(p) >= 8 {
		crc ^= uint32(p[0])<<24 | uint32(p[1])<<16 | uint32(p[2])<<8 | uint32(p[3])
		crc = crc32Slice[7][byte(crc>>24)] ^
			crc32Slice[6][byte(crc>>16)] ^
			crc32Slice[5][byte(crc>>8)] ^
			crc32Slice[4][byte(crc)] ^
			crc32Slice[3][p[4]] ^
			crc32Slice[2][p[5]] ^
			crc32Slice[1][p[6]] ^
			crc32Slice[0][p[7]]
		p = p[8:]
	}
	for _, b := range p {
		crc = crc<<8 ^ crc32Table[byte(crc>>24)^b]
	}
	return crc
}

// crc32Consts drives the carry-less-multiply kernel for CRC-32.
var crc32Consts = newClmulConsts(1<<32 | crc32Poly)

// clmulConsts is what the carry-less-multiply kernel reads, by pointer, for
// one generator P of degree 32; crc32_amd64.s names its fields by offset. A
// 16-byte block loaded through swap reads as a polynomial of degree < 128
// whose x¹²⁷ coefficient is the MSB of its first byte. An accumulator
// A = A_hi·x⁶⁴ + A_lo moves n bits ahead as A_hi·(x^(n+64) mod P) ⊕
// A_lo·(x^n mod P): each product has degree < 96, so the result is again
// one block.
type clmulConsts struct {
	swap    [16]byte  // PSHUFB mask that reverses a block's bytes
	k512    [2]uint64 // x⁵¹² mod P, x⁵⁷⁶ mod P: four accumulators, 64 bytes apart
	k128    [2]uint64 // x¹²⁸ mod P, x¹⁹² mod P: one block ahead
	k96     [2]uint64 // x⁹⁶ mod P, x⁶⁴ mod P: the finish's folds to 96 and 64 bits
	barrett [2]uint64 // µ = ⌊x⁶⁴/P⌋ and P, for the Barrett reduction
	shift   [48]byte  // 16 × 0x80, 0…15, 16 × 0x80: PSHUFB byte shifts of a block
	keep    [32]byte  // 16 × 0xff, 16 × 0x00: keeps a block's low bytes
}

// newClmulConsts derives the kernel's constants for the generator p, whose
// x³² coefficient is set, by plain polynomial arithmetic. It reads no table,
// so package initialization may run it before any init function.
func newClmulConsts(p uint64) clmulConsts {
	// x^n mod P, one shift and conditional reduction per power of x.
	xn := func(n int) uint64 {
		r := uint64(1)
		for ; n > 0; n-- {
			r <<= 1
			if r&(1<<32) != 0 {
				r ^= p
			}
		}
		return r
	}
	// µ by long division. Its x³² coefficient is 1, which leaves
	// x⁶⁴ − x³²·P, of degree < 64; each lower quotient bit clears the
	// remainder's coefficient 32 places above it.
	mu, rem := uint64(1)<<32, (p&^(1<<32))<<32
	for i := 31; i >= 0; i-- {
		if rem>>(32+i)&1 != 0 {
			mu |= 1 << i
			rem ^= p << i
		}
	}
	k := clmulConsts{
		k512:    [2]uint64{xn(512), xn(576)},
		k128:    [2]uint64{xn(128), xn(192)},
		k96:     [2]uint64{xn(96), xn(64)},
		barrett: [2]uint64{mu, p},
	}
	for i := 0; i < 16; i++ {
		k.swap[i] = byte(15 - i)
		k.shift[i], k.shift[16+i], k.shift[32+i] = 0x80, byte(i), 0x80
		k.keep[i] = 0xff
	}
	return k
}

// CRC32Bitwise is the reference bit-serial AAL5 CRC, the oracle of
// FuzzCRC32 and the CRC-32 tests.
func CRC32Bitwise(p []byte) uint32 {
	crc := uint32(0xffff_ffff)
	for _, by := range p {
		for b := 0; b < 8; b++ {
			bit := uint32(by>>(7-b)) & 1
			top := crc >> 31
			crc <<= 1
			if top^bit != 0 {
				crc ^= crc32Poly
			}
		}
	}
	return crc ^ 0xffff_ffff
}
