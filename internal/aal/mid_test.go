package aal

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/atm"
)

// cellsOf segments an SDU with the given MID and returns the cell payloads.
func cellsOf(t *testing.T, mid uint16, sdu []byte) [][atm.PayloadSize]byte {
	t.Helper()
	seg := NewSegmenter34()
	seg.MID = mid
	n, err := seg.Begin(sdu)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][atm.PayloadSize]byte, n)
	for i := 0; i < n; i++ {
		if _, _, err := seg.Next(&out[i]); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestMIDInterleavedFramesReassemble(t *testing.T) {
	// Three senders interleave cell-by-cell on one VC.
	m := NewMIDReassembler34(0, 0)
	sdus := map[uint16][]byte{
		1:   patterned(1000),
		2:   patterned(2000),
		513: patterned(500), // exercises the 2-bit high MID field
	}
	streams := map[uint16][][atm.PayloadSize]byte{}
	maxLen := 0
	for mid, sdu := range sdus {
		streams[mid] = cellsOf(t, mid, sdu)
		if len(streams[mid]) > maxLen {
			maxLen = len(streams[mid])
		}
	}
	got := map[uint16][]byte{}
	// Round-robin the streams cell by cell.
	for i := 0; i < maxLen; i++ {
		for mid := range streams {
			if i < len(streams[mid]) {
				cell := streams[mid][i]
				res, err := m.Push(&cell, atm.PTUser0)
				if err != nil {
					t.Fatalf("mid %d cell %d: %v", mid, i, err)
				}
				if res != nil {
					if res.MID != mid {
						t.Fatalf("MID %d frame tagged %d", mid, res.MID)
					}
					got[mid] = bytes.Clone(res.SDU)
				}
			}
		}
	}
	for mid, sdu := range sdus {
		if !bytes.Equal(got[mid], sdu) {
			t.Fatalf("MID %d frame corrupted or missing", mid)
		}
	}
	if len(m.streams) != 0 {
		t.Fatalf("%d streams leaked", len(m.streams))
	}
}

func TestMIDLimitEnforced(t *testing.T) {
	m := NewMIDReassembler34(0, 2)
	// Start two frames (BOMs only).
	for mid := uint16(1); mid <= 2; mid++ {
		cells := cellsOf(t, mid, patterned(500))
		if _, err := m.Push(&cells[0], atm.PTUser0); err != nil {
			t.Fatal(err)
		}
	}
	cells := cellsOf(t, 3, patterned(500))
	if _, err := m.Push(&cells[0], atm.PTUser0); !errors.Is(err, ErrTooManyMIDs) {
		t.Fatalf("err = %v, want ErrTooManyMIDs", err)
	}
	if len(m.streams) != 2 {
		t.Fatalf("active = %d", len(m.streams))
	}
}

func TestMIDStateReclaimedOnError(t *testing.T) {
	m := NewMIDReassembler34(0, 4)
	cells := cellsOf(t, 7, patterned(300)) // BOM + COMs + EOM
	m.Push(&cells[0], atm.PTUser0)
	// Skip cell 1: SN gap kills the frame at cell 2.
	_, err := m.Push(&cells[2], atm.PTUser0)
	if !errors.Is(err, ErrLostCell) {
		t.Fatalf("err = %v", err)
	}
	if len(m.streams) != 0 {
		t.Fatal("dead stream not reclaimed")
	}
}

func TestMIDAbortClearsAll(t *testing.T) {
	m := NewMIDReassembler34(0, 8)
	for mid := uint16(1); mid <= 3; mid++ {
		cells := cellsOf(t, mid, patterned(500))
		m.Push(&cells[0], atm.PTUser0)
	}
	if len(m.streams) != 3 {
		t.Fatalf("active = %d", len(m.streams))
	}
	m.Abort()
	if len(m.streams) != 0 {
		t.Fatal("abort left streams")
	}
}

func TestMIDSingleStreamMatchesPlainReassembler(t *testing.T) {
	// With one MID the wrapper must behave exactly like Reassembler34.
	m := NewMIDReassembler34(0, 0)
	sdu := patterned(3000)
	for _, cell := range cellsOf(t, 42, sdu) {
		cell := cell
		res, err := m.Push(&cell, atm.PTUser0)
		if err != nil {
			t.Fatal(err)
		}
		if res != nil && !bytes.Equal(res.SDU, sdu) {
			t.Fatal("SDU corrupted")
		}
	}
}

func TestMIDAbortMIDKeepsOtherStreams(t *testing.T) {
	m := NewMIDReassembler34(0, 0)
	a, b := cellsOf(t, 1, patterned(500)), cellsOf(t, 2, patterned(500))
	m.Push(&a[0], atm.PTUser0)
	m.Push(&b[0], atm.PTUser0)
	m.AbortMID(1)
	if m.Active(1) || !m.Active(2) || len(m.streams) != 1 {
		t.Fatalf("after AbortMID(1): active(1)=%v active(2)=%v", m.Active(1), m.Active(2))
	}
	var got *Result
	for _, cell := range b[1:] {
		cell := cell
		res, err := m.Push(&cell, atm.PTUser0)
		if err != nil {
			t.Fatal(err)
		}
		if res != nil {
			got = res
		}
	}
	if got == nil || got.MID != 2 || !bytes.Equal(got.SDU, patterned(500)) {
		t.Fatal("MID 2 frame disturbed by aborting MID 1")
	}
}
