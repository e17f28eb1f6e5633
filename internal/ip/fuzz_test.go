package ip

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzIPDecode feeds arbitrary AAL5 SDU bytes to the receive-path decoders
// and checks, beyond not panicking:
//   - Decapsulation: VC multiplexing passes the SDU through as IPv4;
//     LLC/SNAP either rejects it with the error its length implies, or
//     splits off a header that Encapsulate rebuilds byte for byte, and
//     DecodeLLCSnap agrees.
//   - Parse: the input is parsed as sent and again with its header
//     checksum fixed up, so the field decoders are reached. An accepted
//     datagram's payload is exactly TotalLen minus the header. When the
//     header is one Marshal writes (IHL 5, only DF set, non-zero TTL),
//     Datagram rebuilds the first TotalLen bytes.
func FuzzIPDecode(f *testing.F) {
	h := Header{TOS: 0x10, ID: 7, TTL: 9, Proto: ProtoTCP,
		Src: Addr{10, 0, 0, 1}, Dst: Addr{10, 0, 0, 2}}
	dgram := h.Datagram([]byte("one datagram per AAL5 frame"))
	f.Add(dgram)
	f.Add(append(dgram, 0, 0, 0)) // AAL5 padding past TotalLen
	f.Add(Encapsulate(LLCSnap, EtherTypeIPv4, dgram))
	f.Add(Encapsulate(LLCSnap, EtherTypeARP, []byte{0, 1, 8, 0}))
	f.Add((&Header{}).Datagram(nil))
	f.Add(llcSnapPrefix[:])
	f.Fuzz(func(t *testing.T, data []byte) {
		if et, pdu, err := Decapsulate(VCMux, data); err != nil || et != EtherTypeIPv4 || !bytes.Equal(pdu, data) {
			t.Fatalf("vc-mux decapsulation: EtherType %#x, %d of %d bytes, err %v", et, len(pdu), len(data), err)
		}
		et, pdu, ok := DecodeLLCSnap(data)
		det, dpdu, err := Decapsulate(LLCSnap, data)
		switch {
		case ok != (err == nil) || det != et || !bytes.Equal(dpdu, pdu):
			t.Fatalf("DecodeLLCSnap (%#x, ok %v) and Decapsulate (%#x, err %v) disagree", et, ok, det, err)
		case ok && !bytes.Equal(Encapsulate(LLCSnap, et, pdu), data):
			t.Fatalf("LLC/SNAP header with EtherType %#x does not re-encapsulate to % x", et, data)
		case !ok && len(data) < LLCSnapSize && !errors.Is(err, ErrShortEncap),
			!ok && len(data) >= LLCSnapSize && !errors.Is(err, ErrNotLLCSnap):
			t.Fatalf("%d-byte SDU rejected with %v", len(data), err)
		}

		fixed := append([]byte(nil), data...)
		if len(fixed) >= HeaderSize {
			fixed[10], fixed[11] = 0, 0
			binary.BigEndian.PutUint16(fixed[10:12], Checksum(fixed[:HeaderSize]))
		}
		for _, in := range [][]byte{data, fixed} {
			h, payload, err := Parse(in)
			if err != nil {
				continue
			}
			if int(h.TotalLen) != HeaderSize+len(payload) {
				t.Fatalf("TotalLen %d with a %d-byte payload", h.TotalLen, len(payload))
			}
			if binary.BigEndian.Uint16(in[6:8]) == 0x4000 && h.TTL != 0 {
				// The checksum is a function of the other header bytes, up
				// to the two encodings of ones'-complement zero, so the
				// comparison skips it.
				out := h.Datagram(payload)
				copy(out[10:12], in[10:12])
				if !bytes.Equal(out, in[:h.TotalLen]) {
					t.Fatalf("header %+v re-marshals to % x, want % x", h, out[:HeaderSize], in[:HeaderSize])
				}
			}
		}
	})
}

// FuzzChecksum checks the word-at-a-time ChecksumWith against the 16-bit
// reference for fuzzed seeds and bytes.
func FuzzChecksum(f *testing.F) {
	src, dst := Addr{10, 0, 0, 1}, Addr{10, 0, 0, 2}
	seg := segment9160()
	f.Add(PseudoChecksum(src, dst, ProtoTCP, len(seg)), seg)
	f.Add(uint32(0), (&Header{Proto: ProtoTCP, Src: src, Dst: dst}).Datagram(nil)[:HeaderSize])
	f.Add(uint32(0xFFFFFFFF), []byte{0, 1})
	f.Add(uint32(0), bytes.Repeat([]byte{0xFF}, 39))
	f.Add(uint32(0), []byte(nil))
	f.Fuzz(func(t *testing.T, seed uint32, b []byte) {
		if got, want := ChecksumWith(seed, b), checksumRef(seed, b); got != want {
			t.Fatalf("seed %#x, %d bytes: %#04x, want %#04x", seed, len(b), got, want)
		}
	})
}
