package atm

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestHeaderEncodeDecodeUNI(t *testing.T) {
	h := Header{Format: UNI, GFC: 0xa, VPI: 0x5c, VCI: 0xbeef, PT: PTUserEnd, CLP: true}
	var buf [5]byte
	if err := h.Encode(buf[:]); err != nil {
		t.Fatal(err)
	}
	var got Header
	corrected, err := got.Decode(buf[:], UNI)
	if err != nil {
		t.Fatal(err)
	}
	if corrected {
		t.Fatal("clean header reported corrected")
	}
	if got != h {
		t.Fatalf("round trip: got %+v, want %+v", got, h)
	}
}

func TestHeaderEncodeDecodeNNI(t *testing.T) {
	h := Header{Format: NNI, VPI: 0xabc, VCI: 0x1234, PT: PTOAMSegment, CLP: false}
	var buf [5]byte
	if err := h.Encode(buf[:]); err != nil {
		t.Fatal(err)
	}
	var got Header
	if _, err := got.Decode(buf[:], NNI); err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip: got %+v, want %+v", got, h)
	}
}

func TestHeaderFieldPacking(t *testing.T) {
	// Hand-checked wire layout for a UNI header:
	// GFC=0001, VPI=0000 0010, VCI=0000 0000 0000 0011, PT=010, CLP=1.
	h := Header{Format: UNI, GFC: 1, VPI: 2, VCI: 3, PT: PTUserCongested, CLP: true}
	var buf [5]byte
	if err := h.Encode(buf[:]); err != nil {
		t.Fatal(err)
	}
	want := []byte{0x10, 0x20, 0x00, 0x35}
	if !bytes.Equal(buf[:4], want) {
		t.Fatalf("wire bytes %x, want %x", buf[:4], want)
	}
}

func TestHeaderVPIRangeChecked(t *testing.T) {
	h := Header{Format: UNI, VPI: 0x100}
	var buf [5]byte
	if err := h.Encode(buf[:]); !errors.Is(err, ErrVPIRange) {
		t.Fatalf("err = %v, want ErrVPIRange", err)
	}
	h = Header{Format: NNI, VPI: 0x1000}
	if err := h.Encode(buf[:]); !errors.Is(err, ErrVPIRange) {
		t.Fatalf("err = %v, want ErrVPIRange", err)
	}
	// Max legal values pass.
	h = Header{Format: NNI, VPI: 0xfff}
	if err := h.Encode(buf[:]); err != nil {
		t.Fatalf("max NNI VPI rejected: %v", err)
	}
}

func TestHeaderGFCRangeChecked(t *testing.T) {
	h := Header{Format: UNI, GFC: 0x10}
	var buf [5]byte
	if err := h.Encode(buf[:]); !errors.Is(err, ErrGFCRange) {
		t.Fatalf("err = %v, want ErrGFCRange", err)
	}
}

func TestHeaderShortBuffer(t *testing.T) {
	h := Header{}
	if err := h.Encode(make([]byte, 4)); !errors.Is(err, ErrShortBuf) {
		t.Fatalf("encode err = %v, want ErrShortBuf", err)
	}
	var d Header
	if _, err := d.Decode(make([]byte, 4), UNI); !errors.Is(err, ErrShortBuf) {
		t.Fatalf("decode err = %v, want ErrShortBuf", err)
	}
}

func TestDecodeCorrectsSingleBitError(t *testing.T) {
	h := Header{Format: UNI, VPI: 7, VCI: 99, PT: PTUser0}
	var buf [5]byte
	if err := h.Encode(buf[:]); err != nil {
		t.Fatal(err)
	}
	for bit := 0; bit < 40; bit++ {
		b := buf
		b[bit/8] ^= 0x80 >> (bit % 8)
		var got Header
		corrected, err := got.Decode(b[:], UNI)
		if err != nil {
			t.Fatalf("bit %d: %v", bit, err)
		}
		if !corrected {
			t.Fatalf("bit %d: flip not reported corrected", bit)
		}
		if got != h {
			t.Fatalf("bit %d: decoded %+v, want %+v", bit, got, h)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	// A random header with wrong HEC and multi-bit damage must fail.
	buf := []byte{0xde, 0xad, 0xbe, 0xef, 0x00}
	var h Header
	if _, err := h.Decode(buf, UNI); !errors.Is(err, ErrHECFailed) {
		t.Fatalf("err = %v, want ErrHECFailed", err)
	}
}

func TestPTSemantics(t *testing.T) {
	cases := []struct {
		pt         PT
		user, eof  bool
		congestion bool
	}{
		{PTUser0, true, false, false},
		{PTUserEnd, true, true, false},
		{PTUserCongested, true, false, true},
		{PTUserCongestedEnd, true, true, true},
		{PTOAMSegment, false, false, false},
		{PTOAMEndToEnd, false, false, false},
		{PTResourceMgmt, false, false, false},
	}
	for _, c := range cases {
		if c.pt.User() != c.user {
			t.Errorf("PT %03b User() = %v, want %v", c.pt, c.pt.User(), c.user)
		}
		if c.pt.EndOfFrame() != c.eof {
			t.Errorf("PT %03b EndOfFrame() = %v, want %v", c.pt, c.pt.EndOfFrame(), c.eof)
		}
		if c.pt.Congestion() != c.congestion {
			t.Errorf("PT %03b Congestion() = %v, want %v", c.pt, c.pt.Congestion(), c.congestion)
		}
	}
}

func TestCellRoundTrip(t *testing.T) {
	c := Cell{Header: Header{Format: UNI, VPI: 1, VCI: 42, PT: PTUserEnd}}
	for i := range c.Payload {
		c.Payload[i] = byte(i ^ 0x5a)
	}
	var wire [CellSize]byte
	if err := c.Encode(wire[:]); err != nil {
		t.Fatal(err)
	}
	var got Cell
	if _, err := got.Decode(wire[:], UNI); err != nil {
		t.Fatal(err)
	}
	if got != c {
		t.Fatal("cell round trip mismatch")
	}
	// The stamp is simulator metadata: it never reaches the wire.
	stamped := c
	stamped.Stamp = 123_456_789
	var stampedWire [CellSize]byte
	if err := stamped.Encode(stampedWire[:]); err != nil {
		t.Fatal(err)
	}
	if stampedWire != wire {
		t.Fatal("cells differing only in Stamp encode differently")
	}
}

// A Cell stays within Go's 64-byte allocation size class, with 32-bit words
// too. One more byte would move every cell into the 80-byte class, so a
// field added later has to be a deliberate choice.
func TestCellFitsSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Cell{}); got > 64 {
		t.Fatalf("sizeof(Cell) = %d bytes, want at most 64", got)
	}
}

func TestCellShortBuffers(t *testing.T) {
	var c Cell
	if err := c.Encode(make([]byte, 52)); !errors.Is(err, ErrShortBuf) {
		t.Fatalf("encode err = %v", err)
	}
	if _, err := c.Decode(make([]byte, 52), UNI); !errors.Is(err, ErrShortBuf) {
		t.Fatalf("decode err = %v", err)
	}
}

func TestIdleCell(t *testing.T) {
	c := IdleCell()
	if !c.Header.IsIdle() {
		t.Fatal("idle cell not recognized as idle")
	}
	var wire [CellSize]byte
	if err := c.Encode(wire[:]); err != nil {
		t.Fatal(err)
	}
	// I.432: idle cell header is 00 00 00 01 (CLP=1) with HEC 0x52.
	want := []byte{0x00, 0x00, 0x00, 0x01, 0x52}
	if !bytes.Equal(wire[:5], want) {
		t.Fatalf("idle header %x, want %x", wire[:5], want)
	}
	for _, b := range wire[5:] {
		if b != 0x6a {
			t.Fatalf("idle payload byte %#02x, want 0x6a", b)
		}
	}
}

func TestVCString(t *testing.T) {
	if s := (VC{VPI: 3, VCI: 77}).String(); s != "3/77" {
		t.Fatalf("VC.String() = %q", s)
	}
}

func TestFormatString(t *testing.T) {
	if UNI.String() != "UNI" || NNI.String() != "NNI" {
		t.Fatal("Format.String() broken")
	}
	if Format(9).String() != "Format(9)" {
		t.Fatalf("unknown format: %s", Format(9))
	}
}

// Property: encode∘decode is the identity on all valid UNI headers.
func TestPropertyHeaderRoundTripUNI(t *testing.T) {
	f := func(gfc, vpiLo uint8, vci uint16, pt uint8, clp bool) bool {
		h := Header{
			Format: UNI,
			GFC:    gfc & 0xf,
			VPI:    uint16(vpiLo),
			VCI:    vci,
			PT:     PT(pt & 7),
			CLP:    clp,
		}
		var buf [5]byte
		if err := h.Encode(buf[:]); err != nil {
			return false
		}
		var got Header
		corrected, err := got.Decode(buf[:], UNI)
		return err == nil && !corrected && got == h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: encode∘decode is the identity on all valid NNI headers.
func TestPropertyHeaderRoundTripNNI(t *testing.T) {
	f := func(vpi, vci uint16, pt uint8, clp bool) bool {
		h := Header{
			Format: NNI,
			VPI:    vpi & 0xfff,
			VCI:    vci,
			PT:     PT(pt & 7),
			CLP:    clp,
		}
		var buf [5]byte
		if err := h.Encode(buf[:]); err != nil {
			return false
		}
		var got Header
		_, err := got.Decode(buf[:], NNI)
		return err == nil && got == h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPoolRecycles(t *testing.T) {
	p := NewPool(2)
	a := p.Get()
	b := p.Get()
	if a == b {
		t.Fatal("pool returned the same cell twice")
	}
	p.Put(a)
	c := p.Get()
	if c != a {
		t.Fatal("pool did not recycle the freed cell")
	}
	gets, puts, news := p.Stats()
	if gets != 3 || puts != 1 || news != 0 {
		t.Fatalf("stats = %d/%d/%d, want 3/1/0", gets, puts, news)
	}
}

func TestPoolGrowsWhenEmpty(t *testing.T) {
	p := NewPool(0)
	c := p.Get()
	if c == nil {
		t.Fatal("empty pool returned nil")
	}
	_, _, news := p.Stats()
	if news != 1 {
		t.Fatalf("news = %d, want 1", news)
	}
}

func TestPoolGetZeroesHeader(t *testing.T) {
	p := NewPool(1)
	c := p.Get()
	c.Header.VCI = 99
	p.Put(c)
	c2 := p.Get()
	if c2.Header.VCI != 0 {
		t.Fatal("recycled cell header not zeroed")
	}
}

func TestPoolPutNil(t *testing.T) {
	p := NewPool(0)
	p.Put(nil) // must not panic
	if c := p.Get(); c == nil {
		t.Fatal("Get after Put(nil) returned nil")
	}
}

func BenchmarkHeaderEncode(b *testing.B) {
	h := Header{Format: UNI, VPI: 1, VCI: 42, PT: PTUserEnd}
	var buf [5]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := h.Encode(buf[:]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeaderDecode(b *testing.B) {
	h := Header{Format: UNI, VPI: 1, VCI: 42, PT: PTUserEnd}
	var buf [5]byte
	if err := h.Encode(buf[:]); err != nil {
		b.Fatal(err)
	}
	var got Header
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := got.Decode(buf[:], UNI); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCellEncode(b *testing.B) {
	c := Cell{Header: Header{Format: UNI, VPI: 1, VCI: 42}}
	var wire [CellSize]byte
	b.SetBytes(CellSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := c.Encode(wire[:]); err != nil {
			b.Fatal(err)
		}
	}
}
