package ip

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{TOS: 0x10, ID: 4242, TTL: 17, Proto: ProtoTCP,
		Src: Addr{10, 0, 0, 1}, Dst: Addr{10, 0, 0, 2}}
	payload := []byte("the quick brown fox")
	d := h.Datagram(payload)
	if len(d) != HeaderSize+len(payload) {
		t.Fatalf("datagram length %d", len(d))
	}
	got, pl, err := Parse(d)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pl, payload) {
		t.Errorf("payload mismatch: %q", pl)
	}
	if got.Src != h.Src || got.Dst != h.Dst || got.Proto != ProtoTCP ||
		got.ID != 4242 || got.TOS != 0x10 || got.TTL != 17 {
		t.Errorf("header mismatch: %+v", got)
	}
	if int(got.TotalLen) != len(d) {
		t.Errorf("TotalLen %d want %d", got.TotalLen, len(d))
	}
}

func TestHeaderDefaultTTL(t *testing.T) {
	h := Header{Proto: ProtoUDP}
	got, _, err := Parse(h.Datagram(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.TTL != 64 {
		t.Errorf("default TTL %d, want 64", got.TTL)
	}
}

func TestParseRejects(t *testing.T) {
	h := Header{Proto: ProtoTCP, Src: Addr{1, 2, 3, 4}, Dst: Addr{5, 6, 7, 8}}
	good := h.Datagram([]byte("payload"))

	short := good[:HeaderSize-1]
	if _, _, err := Parse(short); err != ErrTruncated {
		t.Errorf("short: %v", err)
	}

	badVer := append([]byte(nil), good...)
	badVer[0] = 0x65 // version 6
	if _, _, err := Parse(badVer); err != ErrVersion {
		t.Errorf("version: %v", err)
	}

	options := append([]byte(nil), good...)
	options[0] = 0x46 // IHL 6
	if _, _, err := Parse(options); err != ErrOptions {
		t.Errorf("options: %v", err)
	}

	flipped := append([]byte(nil), good...)
	flipped[12] ^= 0xff // corrupt src address
	if _, _, err := Parse(flipped); err != ErrChecksum {
		t.Errorf("checksum: %v", err)
	}

	// TotalLen beyond the buffer.
	cut := good[:len(good)-3]
	if _, _, err := Parse(cut); err != ErrTruncated {
		t.Errorf("cut: %v", err)
	}
}

func TestChecksumOddLength(t *testing.T) {
	// RFC 1071: odd final byte is padded with zero on the right.
	b := []byte{0x12, 0x34, 0x56}
	want := ^uint16(0x1234 + 0x5600)
	if got := Checksum(b); got != want {
		t.Errorf("checksum %#04x want %#04x", got, want)
	}
	if got := ChecksumWith(0, b); got != want {
		t.Errorf("seeded checksum %#04x want %#04x", got, want)
	}
}

// checksumRef is the internet checksum as RFC 1071 writes it: big-endian
// 16-bit words, an odd last byte padded with a zero, summed exactly in 64
// bits and folded to 16 at the end. ChecksumWith must agree with it for
// every seed and every input.
func checksumRef(seed uint32, b []byte) uint16 {
	sum := uint64(seed)
	for len(b) >= 2 {
		sum += uint64(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint64(b[0]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// segment9160 is the size of one wan_tcp data segment, TCP header
// included: the largest input the checksum sees per frame.
func segment9160() []byte {
	b := make([]byte, 9160)
	for i := range b {
		b[i] = byte(i*131 + i>>8)
	}
	return b
}

// TestChecksumMatchesReference covers every tail length the word loop can
// leave (0–80 bytes of all zeros and all ones, where the sums fold and
// carry most), a full data segment, and the extreme seeds. The all-ones
// seed makes a 32-bit accumulator wrap: ChecksumWith(0xFFFFFFFF, {0, 1})
// is 0xfffe.
func TestChecksumMatchesReference(t *testing.T) {
	inputs := map[string][]byte{"segment9160": segment9160()}
	for n := 0; n <= 80; n++ {
		inputs[fmt.Sprintf("zeros%d", n)] = make([]byte, n)
		inputs[fmt.Sprintf("ones%d", n)] = bytes.Repeat([]byte{0xFF}, n)
	}
	for name, b := range inputs {
		for _, seed := range []uint32{0, 0xFFFFFFFF} {
			if got, want := ChecksumWith(seed, b), checksumRef(seed, b); got != want {
				t.Errorf("%s, seed %#x: %#04x, want %#04x", name, seed, got, want)
			}
		}
		if got, want := Checksum(b), checksumRef(0, b); got != want {
			t.Errorf("%s: Checksum %#04x, want %#04x", name, got, want)
		}
	}
	if got := ChecksumWith(0xFFFFFFFF, []byte{0, 1}); got != 0xfffe {
		t.Errorf("ChecksumWith(0xFFFFFFFF, {0, 1}) = %#04x, want 0xfffe", got)
	}
}

// checksumSink keeps the benchmarked call from being optimized away.
var checksumSink uint16

func BenchmarkChecksum(b *testing.B) {
	h := Header{Proto: ProtoTCP, Src: Addr{10, 0, 0, 1}, Dst: Addr{10, 0, 0, 2}}
	for _, in := range []struct {
		name string
		b    []byte
	}{
		{"header20", h.Datagram(nil)},
		{"segment9160", segment9160()},
	} {
		b.Run(in.name, func(b *testing.B) {
			b.SetBytes(int64(len(in.b)))
			for i := 0; i < b.N; i++ {
				checksumSink = ChecksumWith(0x1234, in.b)
			}
		})
	}
}

func TestPseudoChecksumVerifies(t *testing.T) {
	src, dst := Addr{192, 168, 0, 1}, Addr{192, 168, 0, 2}
	seg := []byte{0, 80, 0, 99, 0, 0, 0, 1, 0, 0, 0, 0, 0x50, 0x10, 0x20, 0x00, 0, 0, 0, 0, 'h', 'i'}
	seed := PseudoChecksum(src, dst, ProtoTCP, len(seg))
	ck := ChecksumWith(seed, seg)
	seg[16], seg[17] = byte(ck>>8), byte(ck)
	// A receiver summing the same pseudo-header over the checksummed bytes
	// gets zero.
	if got := ChecksumWith(seed, seg); got != 0 {
		t.Errorf("verification sum %#04x, want 0", got)
	}
	seg[21] ^= 1
	if got := ChecksumWith(seed, seg); got == 0 {
		t.Error("corruption not detected")
	}
}

func TestAddrString(t *testing.T) {
	if s := (Addr{10, 1, 2, 3}).String(); s != "10.1.2.3" {
		t.Errorf("got %q", s)
	}
}
