package aal

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/atm"
)

func TestAAL1HeaderCodec(t *testing.T) {
	for _, csi := range []bool{false, true} {
		for sc := uint8(0); sc < 8; sc++ {
			b := aal1Header(csi, sc)
			gotCSI, gotSC, err := parseAAL1Header(b)
			if err != nil {
				t.Fatalf("csi=%v sc=%d: %v", csi, sc, err)
			}
			if gotCSI != csi || gotSC != sc {
				t.Fatalf("round trip: (%v,%d) -> (%v,%d)", csi, sc, gotCSI, gotSC)
			}
		}
	}
}

func TestAAL1HeaderDetectsEverySingleBitError(t *testing.T) {
	// CRC-3 + parity over 8 bits must catch any single-bit flip.
	for sc := uint8(0); sc < 8; sc++ {
		b := aal1Header(false, sc)
		for bit := 0; bit < 8; bit++ {
			if _, _, err := parseAAL1Header(b ^ 1<<bit); err == nil {
				t.Fatalf("sc=%d bit=%d flip passed", sc, bit)
			}
		}
	}
}

func streamBytes(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*17 + 3)
	}
	return b
}

func TestAAL1StreamRoundTrip(t *testing.T) {
	tx := NewAAL1Sender()
	rx := NewAAL1Receiver()
	stream := streamBytes(47 * 40)
	tx.Write(stream)
	var p [atm.PayloadSize]byte
	for tx.NextCell(&p) {
		if err := rx.Push(&p); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(rx.out, stream) {
		t.Fatal("stream corrupted")
	}
	if len(tx.buf) != 0 {
		t.Fatal("residue left")
	}
}

func TestAAL1UnderrunReportsFalse(t *testing.T) {
	tx := NewAAL1Sender()
	tx.Write(make([]byte, 46))
	var p [atm.PayloadSize]byte
	if tx.NextCell(&p) {
		t.Fatal("cell produced from 46 bytes")
	}
}

func TestAAL1LossDetectedAndConcealed(t *testing.T) {
	tx := NewAAL1Sender()
	rx := NewAAL1Receiver()
	tx.Write(streamBytes(47 * 10))
	var cells [][atm.PayloadSize]byte
	var p [atm.PayloadSize]byte
	for tx.NextCell(&p) {
		cells = append(cells, p)
	}
	var lossErr error
	for i := range cells {
		if i == 4 || i == 5 {
			continue // two consecutive cells lost
		}
		if err := rx.Push(&cells[i]); err != nil {
			lossErr = err
		}
	}
	if !errors.Is(lossErr, ErrAAL1Loss) {
		t.Fatalf("err = %v, want ErrAAL1Loss", lossErr)
	}
	if rx.LostCells != 2 {
		t.Fatalf("LostCells = %d, want 2", rx.LostCells)
	}
	// The reproduced stream keeps its length: silence fills the hole.
	if rx.Pending() != 47*10 {
		t.Fatalf("pending %d, want %d (timing preserved)", rx.Pending(), 47*10)
	}
	got := rx.out
	want := streamBytes(47 * 10)
	// Before the hole and after it, bytes match; inside, zeros.
	if !bytes.Equal(got[:4*47], want[:4*47]) {
		t.Fatal("pre-gap bytes corrupted")
	}
	for _, b := range got[4*47 : 6*47] {
		if b != 0 {
			t.Fatal("hole not silence-filled")
		}
	}
	if !bytes.Equal(got[6*47:], want[6*47:]) {
		t.Fatal("post-gap bytes corrupted")
	}
}

func TestAAL1MisinsertionDropped(t *testing.T) {
	tx := NewAAL1Sender()
	rx := NewAAL1Receiver()
	tx.Write(streamBytes(47 * 3))
	var a, b, c [atm.PayloadSize]byte
	tx.NextCell(&a)
	tx.NextCell(&b)
	tx.NextCell(&c)
	rx.Push(&a)
	rx.Push(&b)
	// Duplicate of b arrives (sc one behind): misinsertion, dropped.
	dup := b
	if err := rx.Push(&dup); !errors.Is(err, ErrAAL1Misinsert) {
		t.Fatalf("err = %v, want ErrAAL1Misinsert", err)
	}
	if err := rx.Push(&c); err != nil {
		t.Fatalf("stream did not continue after misinsertion: %v", err)
	}
	if rx.Pending() != 47*3 {
		t.Fatalf("pending %d", rx.Pending())
	}
}

func TestAAL1CorruptHeaderConcealed(t *testing.T) {
	tx := NewAAL1Sender()
	rx := NewAAL1Receiver()
	tx.Write(streamBytes(47 * 3))
	var p [atm.PayloadSize]byte
	for i := 0; i < 3; i++ {
		tx.NextCell(&p)
		if i == 1 {
			p[0] ^= 0x10 // damage the SC field
		}
		err := rx.Push(&p)
		if i == 1 && !errors.Is(err, ErrAAL1BadHeader) {
			t.Fatalf("err = %v, want ErrAAL1BadHeader", err)
		}
	}
	if rx.BadHeader != 1 {
		t.Fatalf("BadHeader = %d", rx.BadHeader)
	}
	// Length preserved: the damaged cell became silence.
	if rx.Pending() != 47*3 {
		t.Fatalf("pending %d, want %d", rx.Pending(), 47*3)
	}
}

// Property: for any loss pattern with gaps <= 6 consecutive cells, the
// reproduced stream has exactly the original length (clock preservation).
func TestPropertyAAL1ClockPreservation(t *testing.T) {
	f := func(lossMask []bool) bool {
		n := 60
		tx := NewAAL1Sender()
		rx := NewAAL1Receiver()
		tx.Write(streamBytes(47 * n))
		var p [atm.PayloadSize]byte
		consec := 0
		delivered := false
		for i := 0; i < n; i++ {
			if !tx.NextCell(&p) {
				return false
			}
			lose := i < len(lossMask) && lossMask[i] && consec < 6 && delivered
			if lose {
				consec++
				continue
			}
			consec = 0
			delivered = true
			rx.Push(&p)
		}
		return rx.Pending() == 47*n || !delivered
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAAL1Stream(b *testing.B) {
	tx := NewAAL1Sender()
	rx := NewAAL1Receiver()
	chunk := streamBytes(47 * 100)
	var p [atm.PayloadSize]byte
	b.SetBytes(int64(len(chunk)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tx.Write(chunk)
		for tx.NextCell(&p) {
			rx.Push(&p)
		}
		rx.out = rx.out[:0]
	}
}
