package tcp

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/ip"
)

// FuzzParseSegment parses arbitrary bytes as a TCP segment between two
// fuzzed addresses, as sent and again with the checksum fixed up over the
// pseudo-header, so the field decoders are reached. Beyond not panicking,
// an accepted segment's payload is the bytes after its data offset, and a
// segment Marshal can express (data offset 5, no reserved bits, no urgent
// pointer) re-marshals byte for byte.
func FuzzParseSegment(f *testing.F) {
	src, dst := ip.Addr{10, 0, 0, 1}, ip.Addr{10, 0, 0, 2}
	data := Segment{SrcPort: 5001, DstPort: 34000, Seq: iss, Flags: FlagACK,
		Window: 64 << 10, Payload: make([]byte, 1460)}
	ack := Segment{SrcPort: 34000, DstPort: 5001, Seq: 1, Ack: iss + 1460,
		Flags: FlagACK, Window: MaxWindow}
	for _, s := range []Segment{data, ack, {}} {
		f.Add(s.Marshal(src, dst), binary.BigEndian.Uint32(src[:]), binary.BigEndian.Uint32(dst[:]))
	}
	f.Fuzz(func(t *testing.T, b []byte, srcBits, dstBits uint32) {
		var src, dst ip.Addr
		binary.BigEndian.PutUint32(src[:], srcBits)
		binary.BigEndian.PutUint32(dst[:], dstBits)
		fixed := append([]byte(nil), b...)
		if len(fixed) >= HeaderSize {
			fixed[16], fixed[17] = 0, 0
			ck := ip.ChecksumWith(ip.PseudoChecksum(src, dst, ip.ProtoTCP, len(fixed)), fixed)
			binary.BigEndian.PutUint16(fixed[16:18], ck)
		}
		for _, in := range [][]byte{b, fixed} {
			s, err := ParseSegment(src, dst, in)
			if err != nil {
				continue
			}
			off := int(in[12]>>4) * 4
			if !bytes.Equal(s.Payload, in[off:]) {
				t.Fatalf("data offset %d: payload is %d of %d bytes", off, len(s.Payload), len(in))
			}
			if in[12] != 5<<4 || in[18] != 0 || in[19] != 0 {
				continue
			}
			// The checksum is a function of the other bytes, up to the two
			// encodings of ones'-complement zero, so the comparison skips it.
			out := s.Marshal(src, dst)
			copy(out[16:18], in[16:18])
			if !bytes.Equal(out, in) {
				t.Fatalf("segment %+v re-marshals to % x, want % x", s, out[:HeaderSize], in[:HeaderSize])
			}
		}
	})
}
