package crc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// eachHeaderByte calls fn with 1024 headers: each of the four bytes in turn
// takes all 256 values while the other three are random.
func eachHeaderByte(fn func(h [4]byte)) {
	rng := rand.New(rand.NewSource(1))
	for pos := 0; pos < 4; pos++ {
		for v := 0; v < 256; v++ {
			var h [4]byte
			rng.Read(h[:])
			h[pos] = byte(v)
			fn(h)
		}
	}
}

func TestHECMatchesBitwise(t *testing.T) {
	eachHeaderByte(func(h [4]byte) {
		if got, want := HEC(h), HECBitwise(h); got != want {
			t.Fatalf("HEC(% x) = %#02x, bitwise %#02x", h, got, want)
		}
	})
}

func TestHECKnownVector(t *testing.T) {
	// All-zero header: CRC of 0 is 0, coset gives 0x55. This is the idle
	// cell pattern's well-known HEC.
	if got := HEC([4]byte{0, 0, 0, 0}); got != 0x55 {
		t.Fatalf("HEC(0,0,0,0) = %#02x, want 0x55", got)
	}
	// Unassigned-cell header 00 00 00 01 has HEC 0x52 per I.432 examples.
	if got := HEC([4]byte{0x00, 0x00, 0x00, 0x01}); got != 0x52 {
		t.Fatalf("HEC(00 00 00 01) = %#02x, want 0x52", got)
	}
}

func TestHECCheckValidHeader(t *testing.T) {
	h := [5]byte{0x12, 0x34, 0x56, 0x78, 0}
	h[4] = HEC([4]byte{0x12, 0x34, 0x56, 0x78})
	ok, corrected := HECCheck(&h)
	if !ok || corrected {
		t.Fatalf("valid header: ok=%v corrected=%v", ok, corrected)
	}
}

func TestHECCheckCorrectsEverySingleBitError(t *testing.T) {
	orig := [5]byte{0xa5, 0x5a, 0x0f, 0xf0, 0}
	orig[4] = HEC([4]byte{0xa5, 0x5a, 0x0f, 0xf0})
	for bit := 0; bit < 40; bit++ {
		h := orig
		h[bit/8] ^= 0x80 >> (bit % 8)
		ok, corrected := HECCheck(&h)
		if !ok || !corrected {
			t.Fatalf("bit %d: ok=%v corrected=%v", bit, ok, corrected)
		}
		if h != orig {
			t.Fatalf("bit %d: correction produced %x, want %x", bit, h, orig)
		}
	}
}

func TestHECCheckRejectsDoubleBitErrors(t *testing.T) {
	orig := [5]byte{0x01, 0x02, 0x03, 0x04, 0}
	orig[4] = HEC([4]byte{0x01, 0x02, 0x03, 0x04})
	rejected, miscorrected := 0, 0
	for b1 := 0; b1 < 40; b1++ {
		for b2 := b1 + 1; b2 < 40; b2++ {
			h := orig
			h[b1/8] ^= 0x80 >> (b1 % 8)
			h[b2/8] ^= 0x80 >> (b2 % 8)
			ok, corrected := HECCheck(&h)
			switch {
			case !ok:
				rejected++
			case corrected:
				miscorrected++ // corrected to the *wrong* header
				if h == orig {
					t.Fatalf("double error %d,%d claimed corrected to original", b1, b2)
				}
			default:
				t.Fatalf("double error %d,%d passed as error-free", b1, b2)
			}
		}
	}
	// An (40,32) code with 8 check bits cannot correct 2-bit errors; every
	// double error must be either rejected or miscorrected, and a CRC-8
	// with this polynomial detects (rejects) the large majority.
	if rejected == 0 {
		t.Fatal("no double-bit errors rejected; correction logic broken")
	}
	total := rejected + miscorrected
	if total != 40*39/2 {
		t.Fatalf("accounted %d of %d double errors", total, 40*39/2)
	}
}

func TestHECSingleBitSyndromesDistinct(t *testing.T) {
	seen := map[byte]int{}
	base := [5]byte{0, 0, 0, 0, HEC([4]byte{})}
	for bit := 0; bit < 40; bit++ {
		h := base
		h[bit/8] ^= 0x80 >> (bit % 8)
		s := hecSyndrome(h)
		if s == 0 {
			t.Fatalf("bit %d produced zero syndrome", bit)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("bits %d and %d share syndrome %#02x", prev, bit, s)
		}
		seen[s] = bit
	}
}

func TestCRC10MatchesBitwise(t *testing.T) {
	f := func(p []byte) bool { return CRC10(p) == CRC10Bitwise(p) }
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// crc10BitwiseBits is the bit-serial CRC-10 in update form: it advances
// any initial register over the most-significant nbits bits of p.
func crc10BitwiseBits(crc uint16, p []byte, nbits int) uint16 {
	for i := 0; i < nbits; i++ {
		bit := uint16(p[i/8]>>(7-i%8)) & 1
		top := crc >> 9 & 1
		crc = crc << 1 & 0x3ff
		if top^bit != 0 {
			crc ^= crc10Poly & 0x3ff
		}
	}
	return crc
}

// TestCRC10MatchesReference pins crc10Bits (which takes the kernel from
// foldMin whole bytes on where the CPU allows) and CRC10 against the
// bit-serial reference at every length 0–200, over whole bytes and over
// the bit counts the SAR, OAM and RM cells cover (10 bits short) and a
// 5-bit tail, from random registers.
func TestCRC10MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	msg := make([]byte, 200)
	rng.Read(msg)
	for n := 0; n <= len(msg); n++ {
		p := msg[:n]
		if got, want := CRC10(p), CRC10Bitwise(p); got != want {
			t.Fatalf("len %d: CRC10 %#03x, bitwise %#03x", n, got, want)
		}
		for _, nbits := range []int{n * 8, n*8 - 10, n*8 - 3} {
			if nbits < 0 {
				continue
			}
			seed := uint16(rng.Intn(1 << 10))
			if got, want := crc10Bits(seed, p, nbits), crc10BitwiseBits(seed, p, nbits); got != want {
				t.Fatalf("seed %#03x len %d bits %d: crc10Bits %#03x, reference %#03x", seed, n, nbits, got, want)
			}
		}
	}
}

func TestCRC10Empty(t *testing.T) {
	if got := CRC10(nil); got != 0 {
		t.Fatalf("CRC10(nil) = %#x, want 0", got)
	}
}

func TestCRC10FillResidue(t *testing.T) {
	// Filling the trailing 10-bit field then running the register over
	// the whole PDU yields residue 0.
	pdu := append([]byte("ATM SAR payload test vector...."), 0, 0)
	CRC10Fill(pdu)
	if !CRC10Check(pdu) {
		t.Fatalf("residue = %#x, want 0", CRC10(pdu))
	}
}

func TestCRC10FillPreservesLI(t *testing.T) {
	// The 6 high bits of the penultimate byte carry the AAL3/4 LI field;
	// CRC10Fill must leave them alone.
	pdu := make([]byte, 48)
	pdu[46] = 0xac // LI bits 101011, low 2 bits dirty
	pdu[47] = 0xff // dirty CRC bits
	CRC10Fill(pdu)
	if pdu[46]&0xfc != 0xac {
		t.Fatalf("LI bits clobbered: %#02x", pdu[46])
	}
	if !CRC10Check(pdu) {
		t.Fatal("filled PDU does not verify")
	}
}

func TestCRC10FillShortPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CRC10Fill on 1 byte did not panic")
		}
	}()
	CRC10Fill([]byte{1})
}

func TestCRC10DetectsCorruption(t *testing.T) {
	msg := make([]byte, 44)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	c := CRC10(msg)
	for bit := 0; bit < len(msg)*8; bit += 13 {
		m := append([]byte{}, msg...)
		m[bit/8] ^= 1 << (bit % 8)
		if CRC10(m) == c {
			t.Fatalf("single-bit flip at %d not detected", bit)
		}
	}
}

func TestCRC32MatchesBitwise(t *testing.T) {
	f := func(p []byte) bool { return crc32Of(p) == CRC32Bitwise(p) }
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// crc32ByteSerial is the pre-slicing byte-table loop, retained to pin the
// slicing-by-8 path at every alignment and length.
func crc32ByteSerial(crc uint32, p []byte) uint32 {
	for _, b := range p {
		crc = crc<<8 ^ crc32Table[byte(crc>>24)^b]
	}
	return crc
}

func TestCRC32SlicingMatchesByteSerial(t *testing.T) {
	msg := make([]byte, 257)
	for i := range msg {
		msg[i] = byte(i*131 + 7)
	}
	for start := 0; start < 9; start++ {
		for n := 0; n <= 64; n++ {
			if start+n > len(msg) {
				break
			}
			p := msg[start : start+n]
			if got, want := crc32Slicing(0xffff_ffff, p), crc32ByteSerial(0xffff_ffff, p); got != want {
				t.Fatalf("start %d len %d: slicing %#08x, byte-serial %#08x", start, n, got, want)
			}
		}
	}
}

// crc32BitwiseUpdate is the bit-serial reference in update form: it
// advances any initial register over p, MSB-first, without inversion.
func crc32BitwiseUpdate(crc uint32, p []byte) uint32 {
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
	return crc
}

// TestCRC32MatchesReference pins CRC32Update (which folds from foldMin
// bytes on where the CPU allows) and the slicing loop against the
// bit-serial reference at every length up to 2100 bytes and at two frame
// sizes, from three initial registers. Each seed starts the message at a
// different offset.
func TestCRC32MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	msg := make([]byte, 65535+56+16)
	rng.Read(msg)
	for i, seed := range []uint32{0, 0xffff_ffff, rng.Uint32()} {
		off := 5 * i
		check := func(n int, want uint32) {
			t.Helper()
			p := msg[off : off+n]
			if got := CRC32Update(seed, p); got != want {
				t.Fatalf("seed %#08x len %d: CRC32Update %#08x, reference %#08x", seed, n, got, want)
			}
			if got := crc32Slicing(seed, p); got != want {
				t.Fatalf("seed %#08x len %d: slicing %#08x, reference %#08x", seed, n, got, want)
			}
		}
		// The reference is bit-serial, so extending it one byte at a time
		// yields every prefix's register.
		ref := seed
		for n := 0; n <= 2100; n++ {
			check(n, ref)
			ref = crc32BitwiseUpdate(ref, msg[off+n:off+n+1])
		}
		for _, n := range []int{9180, 65535 + 56} {
			check(n, crc32BitwiseUpdate(seed, msg[off:off+n]))
		}
	}
}

func TestHECOKMatchesHEC(t *testing.T) {
	// HECOK accepts the bitwise HEC and rejects each of the other 255.
	eachHeaderByte(func(h [4]byte) {
		want := HECBitwise(h)
		hdr := []byte{h[0], h[1], h[2], h[3], 0}
		for e := 0; e < 256; e++ {
			hdr[4] = byte(e)
			if got := HECOK(hdr); got != (hdr[4] == want) {
				t.Fatalf("HECOK(% x) = %v, bitwise HEC %#02x", hdr, got, want)
			}
		}
	})
}

func TestCRC32KnownVector(t *testing.T) {
	// "123456789" under CRC-32/MPEG-2-style MSB-first with pre/post
	// inversion (the AAL5 form, aka CRC-32/BZIP2): 0xFC891918.
	if got := crc32Of([]byte("123456789")); got != 0xfc891918 {
		t.Fatalf("CRC32(123456789) = %#08x, want 0xfc891918", got)
	}
}

func TestCRC32Incremental(t *testing.T) {
	msg := make([]byte, 480)
	for i := range msg {
		msg[i] = byte(i)
	}
	whole := crc32Of(msg)
	// Fold in 48-byte (cell payload) pieces as the hardware does.
	reg := uint32(0xffff_ffff)
	for off := 0; off < len(msg); off += 48 {
		reg = CRC32Update(reg, msg[off:off+48])
	}
	if got := reg ^ 0xffff_ffff; got != whole {
		t.Fatalf("incremental CRC %#08x != whole %#08x", got, whole)
	}
}

func TestCRC32Empty(t *testing.T) {
	// Empty message: preset^post-invert = 0.
	if got := crc32Of(nil); got != 0 {
		t.Fatalf("CRC32(nil) = %#08x, want 0", got)
	}
}

func TestCRC32DetectsBurstErrors(t *testing.T) {
	msg := make([]byte, 1000)
	for i := range msg {
		msg[i] = byte(i * 31)
	}
	c := crc32Of(msg)
	// Any burst up to 32 bits must be detected.
	for start := 0; start < 968; start += 97 {
		m := append([]byte{}, msg...)
		for j := 0; j < 4; j++ {
			m[start+j] ^= 0xff
		}
		if crc32Of(m) == c {
			t.Fatalf("32-bit burst at byte %d not detected", start)
		}
	}
}

// Property: CRC10Fill always produces a PDU with zero residue, and any
// single bit flip breaks it.
func TestPropertyCRC10FillResidue(t *testing.T) {
	f := func(p []byte, flip uint16) bool {
		pdu := append(append([]byte{}, p...), 0, 0)
		CRC10Fill(pdu)
		if !CRC10Check(pdu) {
			return false
		}
		bit := int(flip) % (len(pdu) * 8)
		pdu[bit/8] ^= 1 << (bit % 8)
		return !CRC10Check(pdu)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: flipping any single byte changes CRC32.
func TestPropertyCRC32SensitiveToEveryByte(t *testing.T) {
	f := func(p []byte, idx uint16, delta byte) bool {
		if len(p) == 0 || delta == 0 {
			return true
		}
		i := int(idx) % len(p)
		c := crc32Of(p)
		q := append([]byte{}, p...)
		q[i] ^= delta
		return crc32Of(q) != c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHEC(b *testing.B) {
	h := [4]byte{0x12, 0x34, 0x56, 0x78}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = HEC(h)
	}
}

func BenchmarkCRC32Cell(b *testing.B) {
	p := make([]byte, 48)
	b.SetBytes(48)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = CRC32Update(0xffffffff, p)
	}
}

func BenchmarkCRC32Frame(b *testing.B) {
	p := make([]byte, 9180)
	b.SetBytes(int64(len(p)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = CRC32Update(0xffffffff, p)
	}
}

// BenchmarkCRC32OneCellFrame is the CRC of a one-cell AAL5 frame: the
// cell's first 44 bytes, a whole block plus a 12-byte tail.
func BenchmarkCRC32OneCellFrame(b *testing.B) {
	p := make([]byte, 44)
	b.SetBytes(int64(len(p)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = CRC32Update(0xffffffff, p)
	}
}

// BenchmarkCRC10Cell fills the CRC-10 of a 48-byte SAR, OAM or RM payload:
// 46 bytes and 6 bits.
func BenchmarkCRC10Cell(b *testing.B) {
	p := make([]byte, 48)
	b.SetBytes(int64(len(p)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CRC10Fill(p)
	}
}

// crc32Of computes the AAL5 CPCS CRC of p in one call: register preset to
// all ones, MSB-first, result complemented.
func crc32Of(p []byte) uint32 {
	return CRC32Update(0xffff_ffff, p) ^ 0xffff_ffff
}
