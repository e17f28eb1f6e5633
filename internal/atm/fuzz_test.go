package atm

import (
	"bytes"
	"math/bits"
	"testing"

	"repro/internal/crc"
)

// FuzzCellDecode decodes arbitrary bytes as a cell, in the UNI or NNI
// header format, and checks two properties.
//   - Round trip: Decode either fails, or gives a cell whose Encode
//     reproduces the input's payload and header with its HEC correction
//     applied: exactly one header bit differs when Decode reports a
//     correction, none otherwise.
//   - Correction: the valid header made from the input's first four bytes
//     and their HEC decodes to the same header, marked corrected, with any
//     one of its 40 bits flipped.
func FuzzCellDecode(f *testing.F) {
	// The benchmark's AAL5 user cell, the idle cell and a forward RM cell.
	user := &Cell{Header: Header{Format: UNI, VCI: 100, PT: PTUser0}}
	rm := &Cell{Header: Header{Format: UNI, VCI: 100, PT: PTResourceMgmt}}
	(&RM{ER: 150_000, CCR: 88_000, MCR: 1000}).Encode(&rm.Payload)
	for _, c := range []*Cell{user, IdleCell(), rm} {
		var b [CellSize]byte
		if err := c.Encode(b[:]); err != nil {
			f.Fatal(err)
		}
		f.Add(b[:], false)
		f.Add(b[:], true)
	}
	f.Fuzz(func(t *testing.T, data []byte, nni bool) {
		format := UNI
		if nni {
			format = NNI
		}
		var c Cell
		if corrected, err := c.Decode(data, format); err == nil {
			var out [CellSize]byte
			if err := c.Encode(out[:]); err != nil {
				t.Fatalf("decoded header %+v does not encode: %v", c.Header, err)
			}
			flips, want := 0, 0
			for i := 0; i < HeaderSize; i++ {
				flips += bits.OnesCount8(out[i] ^ data[i])
			}
			if corrected {
				want = 1
			}
			if flips != want {
				t.Fatalf("% x decodes (corrected=%v) to %+v, which encodes to % x: %d bits differ, want %d",
					data[:HeaderSize], corrected, c.Header, out[:HeaderSize], flips, want)
			}
			if !bytes.Equal(out[HeaderSize:], data[HeaderSize:CellSize]) {
				t.Fatal("payload does not round-trip")
			}
		}

		if len(data) < 4 {
			return
		}
		var w [HeaderSize]byte
		copy(w[:4], data)
		w[4] = crc.HEC([4]byte(w[:4]))
		var want Header
		if corrected, err := want.Decode(w[:], format); err != nil || corrected {
			t.Fatalf("valid header % x: corrected=%v, err=%v", w, corrected, err)
		}
		for bit := 0; bit < 8*HeaderSize; bit++ {
			b := w
			b[bit/8] ^= 0x80 >> (bit % 8)
			var got Header
			corrected, err := got.Decode(b[:], format)
			if err != nil || !corrected || got != want {
				t.Fatalf("% x with bit %d flipped: %+v, corrected=%v, err=%v; want %+v, corrected",
					w, bit, got, corrected, err, want)
			}
		}
	})
}

// FuzzRMDecode decodes arbitrary bytes as an RM cell payload, as given and
// again with the CRC-10 fixed up so the field decoders are reached. Beyond
// not panicking, a payload that decodes re-encodes to one that decodes to
// the same RM. The fuzzed 16-bit value checks the rate format: a rate
// survives DecodeRate and EncodeRate unchanged, less the reserved bit 15,
// when its nonzero flag (bit 14) is set, and encodes to 0 otherwise.
func FuzzRMDecode(f *testing.F) {
	for _, rm := range []RM{
		{ER: 150_000, CCR: 88_000, MCR: 1000},
		{DIR: true, BN: true, CI: true, NI: true, ER: 353_207, CCR: 1},
		{},
	} {
		var p [PayloadSize]byte
		rm.Encode(&p)
		f.Add(p[:], EncodeRate(rm.ER))
	}
	f.Fuzz(func(t *testing.T, data []byte, v uint16) {
		want := uint16(0)
		if v&(1<<14) != 0 {
			want = v & 0x7fff
		}
		if got := EncodeRate(DecodeRate(v)); got != want {
			t.Fatalf("rate %#04x (%v cells/s) re-encodes to %#04x, want %#04x", v, DecodeRate(v), got, want)
		}

		var p [PayloadSize]byte
		copy(p[:], data)
		fixed := p
		crc.CRC10Fill(fixed[:])
		for _, in := range []*[PayloadSize]byte{&p, &fixed} {
			var rm RM
			if rm.Decode(in) != nil {
				continue
			}
			var out [PayloadSize]byte
			rm.Encode(&out)
			var again RM
			if err := again.Decode(&out); err != nil || again != rm {
				t.Fatalf("%+v re-encodes to a payload that decodes to %+v (err %v)", rm, again, err)
			}
		}
	})
}
