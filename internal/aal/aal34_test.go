package aal

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/atm"
	"repro/internal/crc"
)

func TestAAL34RoundTripSizes(t *testing.T) {
	seg, ras := NewSegmenter(AAL34), NewReassembler(AAL34, 0)
	for _, n := range []int{1, 3, 4, 35, 36, 37, 44, 80, 88, 9180, 65535} {
		sdu := patterned(n)
		res := pump(t, seg, ras, sdu)
		if !bytes.Equal(res.SDU, sdu) {
			t.Fatalf("size %d: SDU corrupted", n)
		}
		if want := CellsForSDU34(n); res.Cells != want {
			t.Fatalf("size %d: %d cells, want %d", n, res.Cells, want)
		}
	}
}

func TestAAL34CellCounts(t *testing.T) {
	cases := []struct{ n, want int }{
		{1, 1},  // 4 padded + 8 = 12 -> 1 cell (SSM)
		{36, 1}, // 36+8=44 -> SSM exactly
		{37, 2}, // 40+8=48 -> BOM+EOM
		{9180, 209},
		{65535, 1490}, // 65536+8=65544 -> ceil(65544/44)=1490
	}
	for _, c := range cases {
		if got := CellsForSDU34(c.n); got != c.want {
			t.Errorf("CellsForSDU34(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestAAL34OverheadExceedsAAL5(t *testing.T) {
	// The per-cell SAR tax: AAL3/4 always needs at least as many cells,
	// and strictly more for large SDUs.
	for n := 1; n <= 4096; n += 13 {
		a5, a34 := CellsForSDU5(n), CellsForSDU34(n)
		if a34 < a5 {
			t.Fatalf("n=%d: AAL3/4 %d cells < AAL5 %d", n, a34, a5)
		}
	}
	if CellsForSDU34(9180) <= CellsForSDU5(9180) {
		t.Fatal("AAL3/4 not paying per-cell tax at MTU size")
	}
}

func TestAAL34SegmentTypes(t *testing.T) {
	seg := NewSegmenter34()
	cells, err := seg.Begin(patterned(100)) // 108 bytes CPCS -> 3 cells
	if err != nil {
		t.Fatal(err)
	}
	if cells != 3 {
		t.Fatalf("cells = %d, want 3", cells)
	}
	want := []uint8{stBOM, stCOM, stEOM}
	for i := 0; i < cells; i++ {
		var p [atm.PayloadSize]byte
		if _, _, err := seg.Next(&p); err != nil {
			t.Fatal(err)
		}
		if st := p[0] >> 6; st != want[i] {
			t.Fatalf("cell %d ST = %02b, want %02b", i, st, want[i])
		}
	}
}

func TestAAL34SingleSegmentMessage(t *testing.T) {
	seg := NewSegmenter34()
	cells, err := seg.Begin(patterned(20))
	if err != nil {
		t.Fatal(err)
	}
	if cells != 1 {
		t.Fatalf("cells = %d, want 1", cells)
	}
	var p [atm.PayloadSize]byte
	_, done, err := seg.Next(&p)
	if err != nil || !done {
		t.Fatalf("done=%v err=%v", done, err)
	}
	if st := p[0] >> 6; st != stSSM {
		t.Fatalf("ST = %02b, want SSM", st)
	}
}

func TestAAL34SequenceNumbersIncrement(t *testing.T) {
	seg := NewSegmenter34()
	cells, _ := seg.Begin(patterned(44 * 20)) // 21 cells
	var prev int = -1
	for i := 0; i < cells; i++ {
		var p [atm.PayloadSize]byte
		seg.Next(&p)
		sn := int(p[0] >> 2 & 0xf)
		if prev >= 0 && sn != (prev+1)&0xf {
			t.Fatalf("cell %d: SN %d after %d", i, sn, prev)
		}
		prev = sn
	}
}

func TestAAL34MIDStamped(t *testing.T) {
	seg := NewSegmenter34()
	seg.MID = 0x2a5
	cells, _ := seg.Begin(patterned(100))
	for i := 0; i < cells; i++ {
		var p [atm.PayloadSize]byte
		seg.Next(&p)
		mid := uint16(p[0]&0x3)<<8 | uint16(p[1])
		if mid != 0x2a5 {
			t.Fatalf("cell %d MID = %#x, want 0x2a5", i, mid)
		}
	}
}

func TestAAL34PerCellCRCValid(t *testing.T) {
	seg := NewSegmenter34()
	cells, _ := seg.Begin(patterned(500))
	for i := 0; i < cells; i++ {
		var p [atm.PayloadSize]byte
		seg.Next(&p)
		if !crc.CRC10Check(p[:]) {
			t.Fatalf("cell %d fails CRC-10", i)
		}
	}
}

func TestAAL34LostCellDetectedImmediately(t *testing.T) {
	// Unlike AAL5, AAL3/4 spots the SN gap at the very next cell.
	seg := NewSegmenter34()
	ras := NewReassembler34(0)
	cells, _ := seg.Begin(patterned(300)) // 7 cells
	dropped := 3
	var gotErr error
	errAt := -1
	for i := 0; i < cells; i++ {
		var p [atm.PayloadSize]byte
		pt, _, _ := seg.Next(&p)
		if i == dropped {
			continue
		}
		_, err := ras.Push(&p, pt)
		if err != nil && gotErr == nil {
			gotErr = err
			errAt = i
		}
	}
	if !errors.Is(gotErr, ErrLostCell) {
		t.Fatalf("err = %v, want ErrLostCell", gotErr)
	}
	if errAt != dropped+1 {
		t.Fatalf("loss detected at cell %d, want %d (immediately after gap)", errAt, dropped+1)
	}
}

func TestAAL34CorruptCellFailsCRC10(t *testing.T) {
	seg := NewSegmenter34()
	ras := NewReassembler34(0)
	cells, _ := seg.Begin(patterned(300))
	var gotErr error
	for i := 0; i < cells; i++ {
		var p [atm.PayloadSize]byte
		pt, _, _ := seg.Next(&p)
		if i == 1 {
			p[20] ^= 0x40
		}
		if _, err := ras.Push(&p, pt); err != nil && gotErr == nil {
			gotErr = err
		}
	}
	if !errors.Is(gotErr, ErrBadCellCRC) {
		t.Fatalf("err = %v, want ErrBadCellCRC", gotErr)
	}
}

func TestAAL34LostEOMDetectedAtNextBOM(t *testing.T) {
	seg := NewSegmenter34()
	ras := NewReassembler34(0)

	// Frame 1 loses its EOM. Frame 2's BOM must abort frame 1 with
	// ErrLostCell, and frame 2 must still reassemble correctly.
	cells, _ := seg.Begin(patterned(150)) // BOM, COM, COM, EOM
	for i := 0; i < cells-1; i++ {        // drop EOM
		var p [atm.PayloadSize]byte
		pt, _, _ := seg.Next(&p)
		if _, err := ras.Push(&p, pt); err != nil {
			t.Fatalf("frame 1 cell %d: %v", i, err)
		}
	}
	var last [atm.PayloadSize]byte
	seg.Next(&last) // consume dropped EOM

	sdu2 := patterned(90)
	cells2, _ := seg.Begin(sdu2)
	var res *Result
	var sawLost bool
	for i := 0; i < cells2; i++ {
		var p [atm.PayloadSize]byte
		pt, _, _ := seg.Next(&p)
		r, err := ras.Push(&p, pt)
		if errors.Is(err, ErrLostCell) {
			sawLost = true
		} else if err != nil {
			t.Fatalf("frame 2 cell %d: %v", i, err)
		}
		if r != nil {
			res = r
		}
	}
	if !sawLost {
		t.Fatal("lost EOM never reported")
	}
	if res == nil || !bytes.Equal(res.SDU, sdu2) {
		t.Fatal("frame 2 not delivered intact after frame 1 loss")
	}
}

func TestAAL34LostEOMBeforeSSM(t *testing.T) {
	// The SSM-completes-while-reporting-loss contract.
	seg := NewSegmenter34()
	ras := NewReassembler34(0)
	cells, _ := seg.Begin(patterned(150))
	for i := 0; i < cells-1; i++ {
		var p [atm.PayloadSize]byte
		pt, _, _ := seg.Next(&p)
		ras.Push(&p, pt)
	}
	var junk [atm.PayloadSize]byte
	seg.Next(&junk)

	sdu := patterned(10)
	seg.Begin(sdu)
	var p [atm.PayloadSize]byte
	pt, _, _ := seg.Next(&p)
	res, err := ras.Push(&p, pt)
	if !errors.Is(err, ErrLostCell) {
		t.Fatalf("err = %v, want ErrLostCell", err)
	}
	if res == nil || !bytes.Equal(res.SDU, sdu) {
		t.Fatal("SSM frame lost along with the error report")
	}
}

func TestAAL34COMWithoutBOMIgnored(t *testing.T) {
	seg := NewSegmenter34()
	ras := NewReassembler34(0)
	// Generate a 3-cell frame but deliver only its middle cell.
	seg.Begin(patterned(100))
	var p [atm.PayloadSize]byte
	seg.Next(&p) // BOM, dropped
	seg.Next(&p) // COM
	if _, err := ras.Push(&p, atm.PTUser0); !errors.Is(err, ErrNoFrame) {
		t.Fatalf("err = %v, want ErrNoFrame", err)
	}
}

func TestAAL34BTagETagMismatch(t *testing.T) {
	// Forge a frame whose BTag and ETag disagree: BOM from frame A,
	// EOM from frame B with matching SN chain. The CPCS check must fail.
	segA := NewSegmenter34()
	ras := NewReassembler34(0)
	segA.Begin(patterned(80)) // 2 cells: BOM+EOM
	var bom, eomA [atm.PayloadSize]byte
	segA.Next(&bom)
	segA.Next(&eomA)

	segB := NewSegmenter34()
	segB.Begin(patterned(80))
	var bomB, eomB [atm.PayloadSize]byte
	segB.Next(&bomB)
	segB.Next(&eomB)
	// segB's BTag differs (fresh segmenter also starts at 0) — force it.
	segB.Begin(patterned(80))
	segB.Next(&bomB)
	segB.Next(&eomB) // ETag now 1

	if _, err := ras.Push(&bom, atm.PTUser0); err != nil {
		t.Fatal(err)
	}
	// Fix eomB's SN to follow bom's SN, re-CRC.
	sn := (bom[0]>>2&0xf + 1) & 0xf
	eomB[0] = eomB[0]&^(0xf<<2) | sn<<2
	crc.CRC10Fill(eomB[:])
	_, err := ras.Push(&eomB, atm.PTUser0)
	if !errors.Is(err, ErrBadTag) {
		t.Fatalf("err = %v, want ErrBadTag", err)
	}
}

func TestAAL34OAMCellRejected(t *testing.T) {
	ras := NewReassembler34(0)
	var p [atm.PayloadSize]byte
	if _, err := ras.Push(&p, atm.PTResourceMgmt); !errors.Is(err, ErrBadSegType) {
		t.Fatalf("err = %v, want ErrBadSegType", err)
	}
}

func TestAAL34FrameTooLong(t *testing.T) {
	seg := NewSegmenter34()
	ras := NewReassembler34(100) // fits 2 cells of payload
	cells, _ := seg.Begin(patterned(400))
	var sawErr error
	for i := 0; i < cells; i++ {
		var p [atm.PayloadSize]byte
		pt, _, _ := seg.Next(&p)
		if _, err := ras.Push(&p, pt); err != nil {
			sawErr = err
			break
		}
	}
	if !errors.Is(sawErr, ErrFrameTooLong) {
		t.Fatalf("err = %v, want ErrFrameTooLong", sawErr)
	}
}

func TestAAL34TypeStrings(t *testing.T) {
	if AAL5.String() != "AAL5" || AAL34.String() != "AAL3/4" {
		t.Fatal("Type.String broken")
	}
	if Type(7).String() != "Type(7)" {
		t.Fatal("unknown Type.String broken")
	}
	if AAL5.PerCellPayload() != 48 || AAL34.PerCellPayload() != 44 {
		t.Fatal("PerCellPayload broken")
	}
}

func TestNewPanicsOnUnknownType(t *testing.T) {
	for name, build := range map[string]func(){
		"NewSegmenter":   func() { NewSegmenter(Type(99)) },
		"NewReassembler": func() { NewReassembler(Type(99), 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(99) did not panic", name)
				}
			}()
			build()
		}()
	}
}

// Property: AAL3/4 segment-then-reassemble is the identity.
func TestPropertyAAL34RoundTrip(t *testing.T) {
	seg := NewSegmenter34()
	ras := NewReassembler34(0)
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
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: dropping any single cell of a multi-cell frame prevents
// delivery (no silent corruption) for both layers.
func TestPropertyDropAnyCellNeverDeliversCorrupt(t *testing.T) {
	for _, typ := range []Type{AAL5, AAL34} {
		typ := typ
		f := func(seed uint16, dropIdx uint8) bool {
			n := int(seed)%2000 + 100
			sdu := patterned(n)
			seg, ras := NewSegmenter(typ), NewReassembler(typ, 0)
			cells, err := seg.Begin(sdu)
			if err != nil {
				return false
			}
			if cells < 2 {
				return true
			}
			drop := int(dropIdx) % cells
			var res *Result
			for i := 0; i < cells; i++ {
				var p [atm.PayloadSize]byte
				pt, _, err := seg.Next(&p)
				if err != nil {
					return false
				}
				if i == drop {
					continue
				}
				r, _ := ras.Push(&p, pt)
				if r != nil {
					res = r
				}
			}
			// Either nothing was delivered, or (impossible here) what
			// was delivered matches. Delivering the damaged SDU fails.
			return res == nil
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("%v: %v", typ, err)
		}
	}
}

func BenchmarkAAL34RoundTrip9180(b *testing.B) {
	seg := NewSegmenter34()
	ras := NewReassembler34(0)
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
