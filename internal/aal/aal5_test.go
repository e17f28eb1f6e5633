package aal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/atm"
	"repro/internal/crc"
)

// pump segments an SDU and feeds every cell straight into the reassembler,
// returning the reassembled result.
func pump(t *testing.T, seg Segmenter, ras Reassembler, sdu []byte) *Result {
	t.Helper()
	cells, err := seg.Begin(sdu)
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	var res *Result
	for i := 0; i < cells; i++ {
		var p [atm.PayloadSize]byte
		pt, done, err := seg.Next(&p)
		if err != nil {
			t.Fatalf("Next cell %d: %v", i, err)
		}
		if done != (i == cells-1) {
			t.Fatalf("cell %d: done=%v, want %v", i, done, i == cells-1)
		}
		r, err := ras.Push(&p, pt)
		if err != nil {
			t.Fatalf("Push cell %d: %v", i, err)
		}
		if r != nil {
			if i != cells-1 {
				t.Fatalf("frame completed early at cell %d of %d", i, cells)
			}
			res = r
		}
	}
	if res == nil {
		t.Fatal("frame never completed")
	}
	return res
}

func patterned(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*131 + 7)
	}
	return b
}

func TestAAL5RoundTripSizes(t *testing.T) {
	seg, ras := NewSegmenter(AAL5), NewReassembler(AAL5, 0)
	for _, n := range []int{1, 39, 40, 41, 47, 48, 96, 100, 9180, 65535} {
		sdu := patterned(n)
		res := pump(t, seg, ras, sdu)
		if !bytes.Equal(res.SDU, sdu) {
			t.Fatalf("size %d: SDU corrupted in round trip", n)
		}
		if want := CellsForSDU5(n); res.Cells != want {
			t.Fatalf("size %d: %d cells, want %d", n, res.Cells, want)
		}
	}
}

func TestAAL5CellCounts(t *testing.T) {
	cases := []struct{ n, want int }{
		{1, 1},      // 1+8=9 -> 1 cell
		{40, 1},     // 40+8=48 -> exactly 1
		{41, 2},     // 49 -> 2
		{88, 2},     // 96 -> 2
		{9180, 192}, // 9188 -> 192 cells (IP MTU)
		{65535, 1366},
	}
	for _, c := range cases {
		if got := CellsForSDU5(c.n); got != c.want {
			t.Errorf("CellsForSDU5(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestAAL5TrailerLayout(t *testing.T) {
	seg := NewSegmenter5()
	sdu := patterned(40) // exactly one cell with trailer
	if _, err := seg.Begin(sdu); err != nil {
		t.Fatal(err)
	}
	var p [atm.PayloadSize]byte
	pt, done, err := seg.Next(&p)
	if err != nil || !done {
		t.Fatalf("Next: done=%v err=%v", done, err)
	}
	if pt != atm.PTUserEnd {
		t.Fatalf("final cell PT = %03b, want PTUserEnd", pt)
	}
	if p[40] != 0 || p[41] != 0 {
		t.Fatalf("UU/CPI = %x %x, want 0 0", p[40], p[41])
	}
	if got := int(p[42])<<8 | int(p[43]); got != 40 {
		t.Fatalf("Length field = %d, want 40", got)
	}
}

// TestAAL5PDUMatchesReference segments SDUs into payload arrays that hold
// stale bytes, as recycled pool cells do, and requires the cells to spell
// the CPCS-PDU built independently: the SDU, zero pad, UU and CPI, the
// length, then the bit-serial CRC-32 of everything before it. The lengths
// with len % 48 in 41..47 put pad in the penultimate cell.
func TestAAL5PDUMatchesReference(t *testing.T) {
	seg := NewSegmenter5()
	lengths := []int{9180, 65535}
	for n := 1; n <= 200; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		sdu := patterned(n)
		want := make([]byte, CellsForSDU5(n)*atm.PayloadSize)
		copy(want, sdu)
		binary.BigEndian.PutUint16(want[len(want)-6:], uint16(n))
		binary.BigEndian.PutUint32(want[len(want)-4:], crc.CRC32Bitwise(want[:len(want)-4]))

		cells, err := seg.Begin(sdu)
		if err != nil {
			t.Fatalf("len %d: Begin: %v", n, err)
		}
		got := make([]byte, 0, len(want))
		for i := 0; i < cells; i++ {
			var p [atm.PayloadSize]byte
			for j := range p {
				p[j] = 0xaa
			}
			if _, _, err := seg.Next(&p); err != nil {
				t.Fatalf("len %d: Next cell %d: %v", n, i, err)
			}
			got = append(got, p[:]...)
		}
		if !bytes.Equal(got, want) {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("len %d: PDU byte %d (cell %d) is %#02x, want %#02x", n, i, i/atm.PayloadSize, got[i], want[i])
				}
			}
		}
	}
}

func TestAAL5MiddleCellsMarkedNotEnd(t *testing.T) {
	seg := NewSegmenter5()
	cells, err := seg.Begin(patterned(200))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cells; i++ {
		var p [atm.PayloadSize]byte
		pt, done, err := seg.Next(&p)
		if err != nil {
			t.Fatal(err)
		}
		if i < cells-1 && (pt.EndOfFrame() || done) {
			t.Fatalf("cell %d marked end of frame", i)
		}
		if i == cells-1 && (!pt.EndOfFrame() || !done) {
			t.Fatalf("final cell not marked end of frame")
		}
	}
}

func TestAAL5EmptySDURejected(t *testing.T) {
	seg := NewSegmenter5()
	if _, err := seg.Begin(nil); !errors.Is(err, ErrEmptySDU) {
		t.Fatalf("err = %v, want ErrEmptySDU", err)
	}
}

func TestAAL5OversizeSDURejected(t *testing.T) {
	seg := NewSegmenter5()
	if _, err := seg.Begin(make([]byte, MaxSDU+1)); !errors.Is(err, ErrSDUTooLarge) {
		t.Fatalf("err = %v, want ErrSDUTooLarge", err)
	}
}

func TestAAL5NextWithoutBegin(t *testing.T) {
	seg := NewSegmenter5()
	var p [atm.PayloadSize]byte
	if _, _, err := seg.Next(&p); !errors.Is(err, ErrNoFrame) {
		t.Fatalf("err = %v, want ErrNoFrame", err)
	}
}

func TestAAL5LostMiddleCellDetectedByCRC(t *testing.T) {
	seg := NewSegmenter5()
	ras := NewReassembler5(0)
	cells, err := seg.Begin(patterned(200)) // 5 cells
	if err != nil {
		t.Fatal(err)
	}
	dropped := 2
	var lastErr error
	var res *Result
	for i := 0; i < cells; i++ {
		var p [atm.PayloadSize]byte
		pt, _, err := seg.Next(&p)
		if err != nil {
			t.Fatal(err)
		}
		if i == dropped {
			continue // cell lost in the network
		}
		res, lastErr = ras.Push(&p, pt)
	}
	if res != nil {
		t.Fatal("damaged frame delivered")
	}
	if !errors.Is(lastErr, ErrBadCRC) && !errors.Is(lastErr, ErrBadLength) {
		t.Fatalf("final err = %v, want CRC or length failure", lastErr)
	}
}

func TestAAL5CorruptedPayloadDetected(t *testing.T) {
	seg := NewSegmenter5()
	ras := NewReassembler5(0)
	cells, _ := seg.Begin(patterned(100))
	var lastErr error
	var res *Result
	for i := 0; i < cells; i++ {
		var p [atm.PayloadSize]byte
		pt, _, _ := seg.Next(&p)
		if i == 0 {
			p[10] ^= 0xff
		}
		res, lastErr = ras.Push(&p, pt)
	}
	if res != nil {
		t.Fatal("corrupted frame delivered")
	}
	if !errors.Is(lastErr, ErrBadCRC) {
		t.Fatalf("err = %v, want ErrBadCRC", lastErr)
	}
}

func TestAAL5LostEndCellMergesThenRecovers(t *testing.T) {
	seg := NewSegmenter5()
	ras := NewReassembler5(0)

	// Frame 1 loses its final (EOF) cell; frame 2 is then appended to the
	// same buffer. Its EOF cell triggers a CRC failure over the merged
	// mess — AAL5's documented failure mode — after which frame 3 must
	// pass cleanly.
	send := func(sdu []byte, dropLast bool) (*Result, error) {
		cells, err := seg.Begin(sdu)
		if err != nil {
			t.Fatal(err)
		}
		var res *Result
		var lastErr error
		for i := 0; i < cells; i++ {
			var p [atm.PayloadSize]byte
			pt, _, _ := seg.Next(&p)
			if dropLast && i == cells-1 {
				continue
			}
			r, err := ras.Push(&p, pt)
			if r != nil {
				res = r
			}
			if err != nil {
				lastErr = err
			}
		}
		return res, lastErr
	}

	if res, _ := send(patterned(150), true); res != nil {
		t.Fatal("truncated frame delivered")
	}
	res, err := send(patterned(90), false)
	if res != nil {
		t.Fatal("merged frame delivered")
	}
	if err == nil {
		t.Fatal("merged frame produced no error")
	}
	res, err = send(patterned(77), false)
	if err != nil || res == nil {
		t.Fatalf("recovery frame: res=%v err=%v", res, err)
	}
	if !bytes.Equal(res.SDU, patterned(77)) {
		t.Fatal("recovery frame corrupted")
	}
}

func TestAAL5OAMCellRejected(t *testing.T) {
	ras := NewReassembler5(0)
	var p [atm.PayloadSize]byte
	if _, err := ras.Push(&p, atm.PTOAMSegment); !errors.Is(err, ErrBadSegType) {
		t.Fatalf("err = %v, want ErrBadSegType", err)
	}
}

func TestAAL5FrameTooLong(t *testing.T) {
	ras := NewReassembler5(96) // room for two cells only
	var p [atm.PayloadSize]byte
	var sawErr error
	for i := 0; i < 5; i++ {
		_, err := ras.Push(&p, atm.PTUser0) // never an EOF
		if err != nil {
			sawErr = err
			break
		}
	}
	if !errors.Is(sawErr, ErrFrameTooLong) {
		t.Fatalf("err = %v, want ErrFrameTooLong", sawErr)
	}
}

func TestAAL5AbortDiscardsPartialFrame(t *testing.T) {
	seg := NewSegmenter5()
	ras := NewReassembler5(0)
	cells, _ := seg.Begin(patterned(200))
	var p [atm.PayloadSize]byte
	pt, _, _ := seg.Next(&p)
	if _, err := ras.Push(&p, pt); err != nil {
		t.Fatal(err)
	}
	ras.Abort()
	// Drain remaining cells of frame 1 into the void.
	for i := 1; i < cells; i++ {
		var q [atm.PayloadSize]byte
		seg.Next(&q)
	}
	// A fresh frame must reassemble fine.
	res := pump(t, seg, ras, patterned(60))
	if !bytes.Equal(res.SDU, patterned(60)) {
		t.Fatal("post-abort frame corrupted")
	}
}

// Property: AAL5 segment-then-reassemble is the identity for any SDU.
func TestPropertyAAL5RoundTrip(t *testing.T) {
	seg := NewSegmenter5()
	ras := NewReassembler5(0)
	f := func(sdu []byte) bool {
		if len(sdu) == 0 {
			return true
		}
		if len(sdu) > MaxSDU {
			sdu = sdu[:MaxSDU]
		}
		cells, err := seg.Begin(sdu)
		if err != nil {
			return false
		}
		var res *Result
		for i := 0; i < cells; i++ {
			var p [atm.PayloadSize]byte
			pt, _, err := seg.Next(&p)
			if err != nil {
				return false
			}
			r, err := ras.Push(&p, pt)
			if err != nil {
				return false
			}
			if r != nil {
				res = r
			}
		}
		return res != nil && bytes.Equal(res.SDU, sdu)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAAL5Segment9180(b *testing.B) {
	seg := NewSegmenter5()
	sdu := patterned(9180)
	var p [atm.PayloadSize]byte
	b.SetBytes(9180)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cells, err := seg.Begin(sdu)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < cells; j++ {
			if _, _, err := seg.Next(&p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkAAL5RoundTrip9180(b *testing.B) {
	seg := NewSegmenter5()
	ras := NewReassembler5(0)
	sdu := patterned(9180)
	var p [atm.PayloadSize]byte
	b.SetBytes(9180)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cells, _ := seg.Begin(sdu)
		for j := 0; j < cells; j++ {
			pt, _, _ := seg.Next(&p)
			if _, err := ras.Push(&p, pt); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func TestAAL5ReassemblyWithEFCIMarkedCells(t *testing.T) {
	// A congested switch sets the EFCI bit on user cells in flight
	// (PT 0b000→0b010, 0b001→0b011). The AAU bit is a separate PT bit, so
	// a marked end-of-frame cell must still terminate reassembly and a
	// marked middle cell must still be a middle cell.
	seg, ras := NewSegmenter(AAL5), NewReassembler(AAL5, 0)
	for _, n := range []int{1, 48, 100, 9180} {
		sdu := patterned(n)
		cells, err := seg.Begin(sdu)
		if err != nil {
			t.Fatalf("Begin: %v", err)
		}
		var res *Result
		for i := 0; i < cells; i++ {
			var p [atm.PayloadSize]byte
			pt, _, err := seg.Next(&p)
			if err != nil {
				t.Fatalf("Next cell %d: %v", i, err)
			}
			pt |= atm.PTUserCongested // what Switch.enqueue does above the EFCI threshold
			if i == cells-1 && pt != atm.PTUserCongestedEnd {
				t.Fatalf("EOM cell marked to PT=%03b, want %03b", pt, atm.PTUserCongestedEnd)
			}
			r, err := ras.Push(&p, pt)
			if err != nil {
				t.Fatalf("Push cell %d (PT=%03b): %v", i, pt, err)
			}
			if r != nil && i != cells-1 {
				t.Fatalf("congestion bit terminated the frame early at cell %d of %d", i, cells)
			}
			if r != nil {
				res = r
			}
		}
		if res == nil {
			t.Fatalf("size %d: marked EOM cell did not terminate reassembly", n)
		}
		if !bytes.Equal(res.SDU, sdu) {
			t.Fatalf("size %d: SDU corrupted through EFCI-marked cells", n)
		}
	}
}
