package crc

import "testing"

// hecOracle classifies a received header by brute force over HECBitwise:
// syndrome zero is valid as received; otherwise the one single-bit flip
// (if any) that zeroes the syndrome is the correction.
func hecOracle(h [5]byte) (ok, corrected bool, fixed [5]byte) {
	syndrome := func(h [5]byte) byte { return HECBitwise([4]byte{h[0], h[1], h[2], h[3]}) ^ h[4] }
	if syndrome(h) == 0 {
		return true, false, h
	}
	flips := 0
	for bit := 0; bit < 40; bit++ {
		f := h
		f[bit/8] ^= 0x80 >> (bit % 8)
		if syndrome(f) == 0 {
			flips++
			fixed = f
		}
	}
	if flips == 1 {
		return true, true, fixed
	}
	return false, false, h
}

// FuzzHECCheck checks HECCheck and HECOK against hecOracle on any five
// bytes: a valid header passes uncorrected, a header one bit flip away
// from valid is corrected to exactly that flip, and anything else is
// rejected with its bytes unchanged.
func FuzzHECCheck(f *testing.F) {
	// The header of the user cells the sonet tests frame (VPI 0, VCI 5),
	// clean and with one bit flipped, and the idle cell's header.
	cell := []byte{0x00, 0x00, 0x00, 0x50, HEC([4]byte{0x00, 0x00, 0x00, 0x50})}
	f.Add(cell)
	f.Add([]byte{cell[0], cell[1] ^ 0x08, cell[2], cell[3], cell[4]})
	f.Add([]byte{0x00, 0x00, 0x00, 0x01, 0x52})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		h := [5]byte(data[:5])
		wantOK, wantCorrected, want := hecOracle(h)
		if got := HECOK(data); got != (wantOK && !wantCorrected) {
			t.Fatalf("HECOK(% x) = %v, oracle ok=%v corrected=%v", h, got, wantOK, wantCorrected)
		}
		got := h
		ok, corrected := HECCheck(&got)
		if ok != wantOK || corrected != wantCorrected || got != want {
			t.Fatalf("HECCheck(% x) = %v, %v, % x; oracle %v, %v, % x",
				h, ok, corrected, got, wantOK, wantCorrected, want)
		}
	})
}

// FuzzCRC32 holds three values equal for any initial register, byte string
// and split point: CRC32Update over the whole string, the bit-serial
// reference, and CRC32Update over the two pieces in turn. The seeds sit at
// the kernel's edges (one and two blocks, one short and one over), at
// partial last blocks of 1, 12 and 15 bytes (44 bytes is a one-cell
// frame's CRC), and at a 9180-byte SDU and its 9188-byte PDU.
func FuzzCRC32(f *testing.F) {
	for _, n := range []int{0, 15, 16, 17, 31, 32, 33, 44, 47, 48, 63, 64, 65, 9180, 9188} {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i*131 + 7)
		}
		f.Add(uint32(0xffff_ffff), b, uint16(n/2))
	}
	f.Fuzz(func(t *testing.T, seed uint32, b []byte, split uint16) {
		k := 0
		if len(b) > 0 {
			k = int(split) % (len(b) + 1)
		}
		whole := CRC32Update(seed, b)
		if want := crc32BitwiseUpdate(seed, b); whole != want {
			t.Fatalf("seed %#08x len %d: CRC32Update %#08x, reference %#08x", seed, len(b), whole, want)
		}
		if parts := CRC32Update(CRC32Update(seed, b[:k]), b[k:]); parts != whole {
			t.Fatalf("seed %#08x len %d split %d: in two parts %#08x, whole %#08x", seed, len(b), k, parts, whole)
		}
	})
}

// FuzzCRC10 checks the CRC-10 on any byte string: CRC10 against the
// bit-serial CRC10Bitwise, crc10Bits over all but the last 10 bits from any
// register against the update-form reference, CRC10Check against the
// definition (the last 10 bits equal the CRC-10 of the rest), and
// CRC10Fill followed by CRC10Check. The seeds sit on both sides of the
// kernel's 16-byte threshold and at a 48-byte cell payload.
func FuzzCRC10(f *testing.F) {
	for _, n := range []int{0, 1, 2, 15, 16, 17, 18, 31, 32, 33, 47, 48, 64, 65} {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i*131 + 7)
		}
		f.Add(uint16(n*37), b)
	}
	f.Fuzz(func(t *testing.T, seed uint16, b []byte) {
		seed &= 0x3ff
		if got, want := CRC10(b), CRC10Bitwise(b); got != want {
			t.Fatalf("len %d: CRC10 %#03x, bitwise %#03x", len(b), got, want)
		}
		if len(b) < 2 {
			if CRC10Check(b) {
				t.Fatalf("CRC10Check accepted %d bytes", len(b))
			}
			return
		}
		nbits := len(b)*8 - 10
		covered := crc10BitwiseBits(seed, b, nbits)
		if got := crc10Bits(seed, b, nbits); got != covered {
			t.Fatalf("seed %#03x len %d: crc10Bits %#03x, reference %#03x", seed, len(b), got, covered)
		}
		field := uint16(b[len(b)-2]&0x03)<<8 | uint16(b[len(b)-1])
		if want := crc10BitwiseBits(0, b, nbits) == field; CRC10Check(b) != want {
			t.Fatalf("len %d: CRC10Check %v, reference %v", len(b), !want, want)
		}
		pdu := append([]byte{}, b...)
		CRC10Fill(pdu)
		if !CRC10Check(pdu) {
			t.Fatalf("len %d: a filled PDU fails CRC10Check", len(b))
		}
	})
}
