package sonet

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/atm"
	"repro/internal/crc"
)

// idleSource supplies nothing but I.432 idle cells, as a transmitter with
// an empty queue does.
type idleSource struct{}

func (idleSource) NextCell(dst []byte) {
	if err := atm.IdleCell().Encode(dst); err != nil {
		panic(err)
	}
}

// framerOutput returns n frames at rate r carrying src's cells.
func framerOutput(r Rate, src CellSource, n int) []byte {
	fr := NewFramer(r, src)
	out := make([]byte, n*fr.Geometry().FrameBytes)
	for i := 0; i < n; i++ {
		fr.NextFrame(out[i*fr.Geometry().FrameBytes:])
	}
	return out
}

// FuzzDeframer cuts arbitrary bytes into frame-sized pieces plus a short
// tail and feeds them through a Deframer into a Delineator, at STS-12c when
// sts12 is set. Full pieces must be accepted and the tail refused with
// ErrShortFrame; every delivered cell must be 53 bytes with a header that
// passes the exact HEC check, and the delineator must count each delivery.
func FuzzDeframer(f *testing.F) {
	clean := framerOutput(STS3c, &seqSource{}, 4)
	f.Add(false, clean)
	flipped := append([]byte(nil), clean...)
	flipped[2*2430+1000] ^= 0x10
	f.Add(false, flipped)
	f.Add(false, framerOutput(STS3c, idleSource{}, 3))
	f.Add(true, framerOutput(STS12c, &seqSource{}, 2))
	f.Fuzz(func(t *testing.T, sts12 bool, data []byte) {
		r := STS3c
		if sts12 {
			r = STS12c
		}
		sinks := 0
		del := NewDelineator(func(cell []byte, _ bool) {
			sinks++
			if len(cell) != 53 {
				t.Fatalf("delivered a %d-byte cell", len(cell))
			}
			if !crc.HECOK(cell) {
				t.Fatalf("delivered header % x fails its HEC", cell[:5])
			}
		})
		df := NewDeframer(r, del)
		size := Geom(r).FrameBytes
		for len(data) >= size {
			if err := df.PushFrame(data[:size]); err != nil {
				t.Fatalf("full frame refused: %v", err)
			}
			data = data[size:]
		}
		if err := df.PushFrame(data); !errors.Is(err, ErrShortFrame) {
			t.Fatalf("%d-byte tail: err = %v, want ErrShortFrame", len(data), err)
		}
		if got := del.Stats().Cells; got != uint64(sinks) {
			t.Fatalf("delineator counted %d cells, sink saw %d", got, sinks)
		}
	})
}

// FuzzFramer pins the framer's parity algebra and in-place build, and the
// deframer's one-fold parity, against the per-byte references. The input's
// whole 53-byte cells (one zero cell when it holds none) are the cell stream:
// three frames at STS-3c, or two at STS-12c when sts12 is set, must match
// refFramer byte for byte. Then the frames, with the bit at offset flip
// inverted, go through a Deframer and refDeframer: the counters must agree
// after every frame, and PushFrame must leave its argument as it was.
func FuzzFramer(f *testing.F) {
	seq := seqCells(4)
	f.Add(false, uint32(8*(2430+500)), seq)
	f.Add(true, uint32(8*36), seq)
	idle := make([]byte, 53)
	idleSource{}.NextCell(idle)
	f.Add(false, uint32(8*270+3), idle) // B1 of the second frame
	f.Add(false, uint32(0), []byte{0xff, 0x00, 0x6a})
	f.Fuzz(func(t *testing.T, sts12 bool, flip uint32, data []byte) {
		r, n := STS3c, 3
		if sts12 {
			r, n = STS12c, 2
		}
		data = data[:len(data)/53*53]
		if len(data) == 0 {
			data = make([]byte, 53)
		}
		fast := NewFramer(r, &cellBytes{data: data})
		ref := newRefFramer(r, &cellBytes{data: data})
		size := fast.Geometry().FrameBytes
		frames := make([]byte, n*size)
		want := make([]byte, size)
		for i := 0; i < n; i++ {
			fb := frames[i*size : (i+1)*size]
			fast.NextFrame(fb)
			ref.NextFrame(want)
			if !bytes.Equal(fb, want) {
				t.Fatalf("%v frame %d: framer diverges from the per-byte reference", r, i)
			}
		}

		bit := int(flip % uint32(8*len(frames)))
		frames[bit/8] ^= 1 << (bit % 8)
		df := NewDeframer(r, NewDelineator(func([]byte, bool) {}))
		rd := &refDeframer{geom: Geom(r)}
		for i := 0; i < n; i++ {
			fb := frames[i*size : (i+1)*size]
			copy(want, fb)
			rd.PushFrame(fb)
			if err := df.PushFrame(fb); err != nil {
				t.Fatalf("%v frame %d: %v", r, i, err)
			}
			if !bytes.Equal(fb, want) {
				t.Fatalf("%v frame %d: PushFrame modified its argument", r, i)
			}
			if got, want := df.Stats(), rd.stats; got != want {
				t.Fatalf("%v frame %d, bit %d flipped: stats %+v, reference %+v", r, i, bit, got, want)
			}
		}
	})
}
