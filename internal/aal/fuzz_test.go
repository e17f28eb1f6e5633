package aal

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/atm"
	"repro/internal/crc"
)

// The reassemblers take cells straight off the wire, so they must survive
// any cell sequence. A fuzz input is a run of records, one per cell: a byte
// whose low three bits are the cell's PT, then its 48-byte payload. A
// trailing partial record is ignored.
const fuzzRecord = 1 + atm.PayloadSize

// fuzzMaxFrame is the reassembly bound the interface uses for its default
// 9180-byte MaxSDU.
const fuzzMaxFrame = 9180 + 64

// fuzzCells encodes sdu's segmentation as fuzz records.
func fuzzCells(tb testing.TB, seg Segmenter, sdu []byte) []byte {
	tb.Helper()
	cells, err := seg.Begin(sdu)
	if err != nil {
		tb.Fatalf("Begin(%d bytes): %v", len(sdu), err)
	}
	out := make([]byte, 0, cells*fuzzRecord)
	for i := 0; i < cells; i++ {
		var p [atm.PayloadSize]byte
		pt, _, err := seg.Next(&p)
		if err != nil {
			tb.Fatalf("Next cell %d: %v", i, err)
		}
		out = append(out, byte(pt))
		out = append(out, p[:]...)
	}
	return out
}

// fuzzSDU returns n bytes of a fixed pattern.
func fuzzSDU(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*29 + 3)
	}
	return b
}

// addFuzzSeeds seeds the corpus with segmentations of 1-, 40- and 9180-byte
// SDUs, the 9180-byte one again with a middle cell lost, and the 40-byte
// one with corruptTrailer applied to its last cell's payload.
func addFuzzSeeds(f *testing.F, newSeg func() Segmenter, corruptTrailer func(last []byte)) {
	for _, n := range []int{1, 40, 9180} {
		f.Add(fuzzCells(f, newSeg(), fuzzSDU(n)))
	}
	long := fuzzCells(f, newSeg(), fuzzSDU(9180))
	mid := len(long) / fuzzRecord / 2 * fuzzRecord
	f.Add(append(long[:mid:mid], long[mid+fuzzRecord:]...))
	short := fuzzCells(f, newSeg(), fuzzSDU(40))
	corruptTrailer(short[len(short)-atm.PayloadSize:])
	f.Add(short)
}

// fuzzReassembler feeds data's records to ras and checks every completed
// frame against the segmenter's geometry (cellsFor). Then it aborts
// whatever partial frame the records left, segments an SDU made of data's
// own bytes with seg, and requires that frame to come back byte for byte.
func fuzzReassembler(t *testing.T, data []byte, ras Reassembler, seg Segmenter, cellsFor func(int) int) {
	for rest := data; len(rest) >= fuzzRecord; rest = rest[fuzzRecord:] {
		var p [atm.PayloadSize]byte
		copy(p[:], rest[1:fuzzRecord])
		res, _ := ras.Push(&p, atm.PT(rest[0]&0b111))
		if res == nil {
			continue
		}
		if n := len(res.SDU); n < 1 || n > fuzzMaxFrame {
			t.Fatalf("completed SDU of %d bytes, want 1..%d", n, fuzzMaxFrame)
		}
		if want := cellsFor(len(res.SDU)); res.Cells != want {
			t.Fatalf("%d-byte SDU reported %d cells; the segmenter uses %d", len(res.SDU), res.Cells, want)
		}
	}
	ras.Abort()

	sdu := data
	if len(sdu) == 0 {
		sdu = []byte{0}
	}
	if len(sdu) > 9180 {
		sdu = sdu[:9180]
	}
	cells := fuzzCells(t, seg, sdu)
	var got *Result
	for rest := cells; len(rest) > 0; rest = rest[fuzzRecord:] {
		var p [atm.PayloadSize]byte
		copy(p[:], rest[1:fuzzRecord])
		res, err := ras.Push(&p, atm.PT(rest[0]))
		if err != nil {
			t.Fatalf("valid segmentation of %d bytes: %v", len(sdu), err)
		}
		if res != nil {
			if len(rest) != fuzzRecord {
				t.Fatalf("valid segmentation of %d bytes completed before its last cell", len(sdu))
			}
			got = res
		}
	}
	if got == nil {
		t.Fatalf("valid segmentation of %d bytes never completed", len(sdu))
	}
	if !bytes.Equal(got.SDU, sdu) || got.Cells != cellsFor(len(sdu)) {
		t.Fatalf("valid segmentation of %d bytes came back as %d bytes in %d cells", len(sdu), len(got.SDU), got.Cells)
	}
}

func FuzzReassembler5(f *testing.F) {
	// The length field sits just ahead of the CRC-32, which then fails.
	addFuzzSeeds(f, func() Segmenter { return NewSegmenter5() },
		func(last []byte) { last[atm.PayloadSize-5] ^= 0x01 })
	// An intact frame a few bytes over the bound still fits in the cell
	// that crosses it; it must be rejected, not delivered.
	f.Add(fuzzCells(f, NewSegmenter5(), fuzzSDU(fuzzMaxFrame+6)))
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzReassembler(t, data, NewReassembler5(fuzzMaxFrame), NewSegmenter5(), CellsForSDU5)
	})
}

// sar34 encodes one AAL3/4 cell as a fuzz record: segment type st,
// sequence number sn, and the CPCS bytes in cpcs as its payload (LI =
// len(cpcs)), with a valid CRC-10.
func sar34(st, sn byte, cpcs []byte) []byte {
	var p [atm.PayloadSize]byte
	p[0] = st<<6 | sn<<2
	copy(p[2:], cpcs)
	p[46] = byte(len(cpcs)) << 2
	crc.CRC10Fill(p[:])
	return append([]byte{byte(atm.PTUser0)}, p[:]...)
}

func FuzzReassembler34(f *testing.F) {
	// The 40-byte SDU's EOM carries only the CPCS trailer; damage its
	// ETag and refill the CRC-10 so the cell itself still checks.
	addFuzzSeeds(f, func() Segmenter { return NewSegmenter34() },
		func(last []byte) {
			last[2+1] ^= 0xff
			crc.CRC10Fill(last)
		})
	// Cells that each pass their CRC-10 but carry a malformed frame: an
	// empty SDU in one SSM, and a 36-byte SDU (one cell when segmented)
	// spread over a 40-byte BOM and a 4-byte EOM. Both must be rejected.
	env := func(n int) []byte { // CPCS header, n zero bytes, trailer
		b := make([]byte, 4+n+4)
		b[1], b[len(b)-3] = 9, 9 // BTag, ETag
		b[3], b[len(b)-1] = byte(n), byte(n)
		return b
	}
	f.Add(sar34(stSSM, 0, env(0)))
	pdu := env(36)
	f.Add(append(sar34(stBOM, 0, pdu[:40]), sar34(stEOM, 1, pdu[40:])...))
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzReassembler(t, data, NewReassembler34(fuzzMaxFrame), NewSegmenter34(), CellsForSDU34)
	})
}

// fuzzMIDs is the MID fuzz target's concurrent-stream bound, small enough
// for a seed to exceed it.
const fuzzMIDs = 4

// midCells encodes sdu's AAL3/4 segmentation under MID mid as fuzz records.
func midCells(tb testing.TB, mid uint16, sdu []byte) []byte {
	seg := NewSegmenter34()
	seg.MID = mid
	return fuzzCells(tb, seg, sdu)
}

// interleave merges record streams cell by cell, round robin.
func interleave(streams ...[]byte) []byte {
	var out []byte
	for done := false; !done; {
		done = true
		for i, s := range streams {
			if len(s) >= fuzzRecord {
				out = append(out, s[:fuzzRecord]...)
				streams[i] = s[fuzzRecord:]
				done = false
			}
		}
	}
	return out
}

func FuzzMIDReassembler34(f *testing.F) {
	// Two MID streams interleaved cell by cell.
	f.Add(interleave(midCells(f, 1, fuzzSDU(1000)), midCells(f, 2, fuzzSDU(500))))
	// A frame whose EOM is lost, then the next frame on the same MID.
	lost := midCells(f, 3, fuzzSDU(300))
	f.Add(append(lost[:len(lost)-fuzzRecord:len(lost)-fuzzRecord], midCells(f, 3, fuzzSDU(200))...))
	// One more concurrent stream than the bound admits.
	var many [][]byte
	for mid := uint16(0); mid <= fuzzMIDs; mid++ {
		many = append(many, midCells(f, 100+mid, fuzzSDU(200)))
	}
	f.Add(interleave(many...))
	f.Fuzz(func(t *testing.T, data []byte) {
		m := NewMIDReassembler34(fuzzMaxFrame, fuzzMIDs)
		for rest := data; len(rest) >= fuzzRecord; rest = rest[fuzzRecord:] {
			var p [atm.PayloadSize]byte
			copy(p[:], rest[1:fuzzRecord])
			res, _ := m.Push(&p, atm.PT(rest[0]&0b111))
			if n := len(m.streams); n > fuzzMIDs {
				t.Fatalf("%d active MIDs, bound %d", n, fuzzMIDs)
			}
			if res == nil {
				continue
			}
			if res.MID != MIDOf(&p) {
				t.Fatalf("frame completed by a MID %d cell tagged MID %d", MIDOf(&p), res.MID)
			}
			if n := len(res.SDU); n < 1 || n > fuzzMaxFrame {
				t.Fatalf("completed SDU of %d bytes, want 1..%d", n, fuzzMaxFrame)
			}
			if want := CellsForSDU34(len(res.SDU)); res.Cells != want {
				t.Fatalf("%d-byte SDU reported %d cells; the segmenter uses %d", len(res.SDU), res.Cells, want)
			}
		}
		m.Abort()
		if m.Busy() || len(m.streams) != 0 {
			t.Fatalf("Abort left %d MIDs active", len(m.streams))
		}
	})
}

// FuzzAAL1Receiver feeds arbitrary runs of 48-byte payloads to an
// AAL1Receiver. Whatever the SAR headers say, each push must grow the
// reproduced stream by a whole number of 47-byte cells, at most 7 (six
// inferred losses, the most a 3-bit count can tell, plus the cell itself);
// it grows by nothing exactly when Push reports a misinserted cell; and
// every push is counted once, as a cell or as a bad header.
func FuzzAAL1Receiver(f *testing.F) {
	snd := NewAAL1Sender()
	snd.Write(fuzzSDU(10 * AAL1Payload))
	var clean []byte
	for {
		var p [atm.PayloadSize]byte
		if !snd.NextCell(&p) {
			break
		}
		clean = append(clean, p[:]...)
	}
	const cell = atm.PayloadSize
	f.Add(clean)
	f.Add(append(clean[:3*cell:3*cell], clean[4*cell:]...)) // one cell lost
	f.Add(append(clean[:4*cell:4*cell], clean[3*cell:]...)) // one cell repeated
	broken := append([]byte(nil), clean[:cell]...)
	broken[0] ^= 0x01 // the parity bit
	f.Add(broken)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewAAL1Receiver()
		pushes := uint64(0)
		for rest := data; len(rest) >= cell; rest = rest[cell:] {
			var p [atm.PayloadSize]byte
			copy(p[:], rest)
			before := r.Pending()
			err := r.Push(&p)
			pushes++
			grew := r.Pending() - before
			if grew < 0 || grew%AAL1Payload != 0 || grew > 7*AAL1Payload {
				t.Fatalf("push %d grew the stream by %d bytes, want a multiple of %d up to %d",
					pushes, grew, AAL1Payload, 7*AAL1Payload)
			}
			if misinsert := errors.Is(err, ErrAAL1Misinsert); (grew == 0) != misinsert {
				t.Fatalf("push %d grew the stream by %d bytes with error %v", pushes, grew, err)
			}
			if r.Cells+r.BadHeader != pushes {
				t.Fatalf("after %d pushes: %d cells + %d bad headers", pushes, r.Cells, r.BadHeader)
			}
		}
	})
}
