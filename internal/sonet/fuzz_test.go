package sonet

import (
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
