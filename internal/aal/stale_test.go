package aal

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/atm"
	"repro/internal/metrics"
)

// feedPartial pushes every cell of an SDU except the last, leaving the
// reassembler holding a partial frame — exactly what a link failure does
// when it eats the end-of-message cell.
func feedPartial(t *testing.T, seg Segmenter, ras Reassembler, sdu []byte) {
	t.Helper()
	cells, err := seg.Begin(sdu)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cells-1; i++ {
		var p [atm.PayloadSize]byte
		pt, _, err := seg.Next(&p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ras.Push(&p, pt); err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
	}
}

func TestAAL5StaleFrameReclaimed(t *testing.T) {
	vst := &metrics.VCStats{}
	ras := NewReassembler5(0)
	ras.SetVCStats(vst)
	now := int64(0)
	ras.SetClock(func() int64 { return now })

	feedPartial(t, NewSegmenter5(), ras, patterned(4000))
	if !ras.Busy() {
		t.Fatal("reassembler not busy after a partial frame")
	}
	// Cutoff before the last push: the frame is not stale yet.
	if n := ras.ExpireStale(-1); n != 0 {
		t.Fatalf("expired %d frames before the timeout", n)
	}
	if !ras.Busy() {
		t.Fatal("fresh frame was aborted")
	}
	// Cutoff at the last push: the frame has idled long enough.
	if n := ras.ExpireStale(0); n != 1 {
		t.Fatalf("expired %d frames, want 1", n)
	}
	if ras.Busy() {
		t.Fatal("reassembler still busy after expiry")
	}
	if vst.ReassemblyTimeouts != 1 {
		t.Fatalf("ReassemblyTimeouts = %d, want 1", vst.ReassemblyTimeouts)
	}
	// An idle reassembler expires nothing.
	if n := ras.ExpireStale(1 << 40); n != 0 {
		t.Fatalf("idle reassembler expired %d frames", n)
	}
	// And the next frame still reassembles cleanly.
	now = 100
	res := pump(t, NewSegmenter5(), ras, patterned(1234))
	if !bytes.Equal(res.SDU, patterned(1234)) {
		t.Fatal("frame after expiry corrupted")
	}
}

func TestAAL34StaleFrameReclaimed(t *testing.T) {
	vst := &metrics.VCStats{}
	ras := NewReassembler34(0)
	ras.SetVCStats(vst)
	now := int64(0)
	ras.SetClock(func() int64 { return now })

	feedPartial(t, NewSegmenter34(), ras, patterned(2000))
	if !ras.Busy() {
		t.Fatal("reassembler not busy after a partial frame")
	}
	if n := ras.ExpireStale(-1); n != 0 {
		t.Fatalf("expired %d frames before the timeout", n)
	}
	if n := ras.ExpireStale(0); n != 1 {
		t.Fatalf("expired %d frames, want 1", n)
	}
	if ras.Busy() || vst.ReassemblyTimeouts != 1 {
		t.Fatalf("busy=%v timeouts=%d after expiry", ras.Busy(), vst.ReassemblyTimeouts)
	}
	res := pump(t, NewSegmenter34(), ras, patterned(640))
	if !bytes.Equal(res.SDU, patterned(640)) {
		t.Fatal("frame after expiry corrupted")
	}
}

// TestStaleReclaimUnderSustainedLoss models a long outage: frame after frame
// loses its tail, and each one must be reclaimed or the buffer pins forever.
func TestStaleReclaimUnderSustainedLoss(t *testing.T) {
	vst := &metrics.VCStats{}
	ras := NewReassembler5(0)
	ras.SetVCStats(vst)
	now := int64(0)
	ras.SetClock(func() int64 { return now })

	const rounds = 25
	for i := 0; i < rounds; i++ {
		feedPartial(t, NewSegmenter5(), ras, patterned(9180))
		now += 10
		if n := ras.ExpireStale(now - 5); n != 1 {
			t.Fatalf("round %d: expired %d, want 1", i, n)
		}
		if ras.Busy() {
			t.Fatalf("round %d: buffer still pinned", i)
		}
	}
	if vst.ReassemblyTimeouts != rounds {
		t.Fatalf("ReassemblyTimeouts = %d, want %d", vst.ReassemblyTimeouts, rounds)
	}
}

func TestMIDStaleSlotsReclaimed(t *testing.T) {
	m := NewMIDReassembler34(0, 0)
	now := int64(0)
	m.SetClock(func() int64 { return now })

	push := func(mid uint16, sdu []byte) {
		t.Helper()
		cells := cellsOf(t, mid, sdu)
		for _, cell := range cells[:len(cells)-1] { // EOM lost
			if _, err := m.Push(&cell, atm.PTUser0); err != nil {
				t.Fatal(err)
			}
		}
	}
	push(7, patterned(800)) // stale at t=0
	now = 100
	push(9, patterned(800)) // fresh at t=100
	if len(m.streams) != 2 {
		t.Fatalf("active MIDs = %d, want 2", len(m.streams))
	}

	// Only the idle slot is reclaimed; the fresh one keeps reassembling.
	if n := m.ExpireStale(50); n != 1 {
		t.Fatalf("expired %d slots, want 1", n)
	}
	if len(m.streams) != 1 {
		t.Fatalf("active MIDs = %d after partial expiry, want 1", len(m.streams))
	}
	if !m.Busy() {
		t.Fatal("Busy() = false with a live MID slot")
	}
	if n := m.ExpireStale(200); n != 1 {
		t.Fatalf("expired %d slots, want 1", n)
	}
	if len(m.streams) != 0 || m.Busy() {
		t.Fatalf("slots leaked: active=%d busy=%v", len(m.streams), m.Busy())
	}
}

// TestAAL34MidFrameKillDistinguished: a corrupt cell arriving mid-frame
// kills the frame in progress and is counted as such; the same corruption on
// an isolated cell costs only itself.
func TestAAL34MidFrameKillDistinguished(t *testing.T) {
	mk := func() (*Reassembler34, *metrics.VCStats) {
		vst := &metrics.VCStats{}
		ras := NewReassembler34(0)
		ras.SetVCStats(vst)
		return ras, vst
	}
	cells := cellsOf(t, 0, patterned(500))
	if len(cells) < 3 {
		t.Fatal("want a multi-cell frame")
	}

	// Corrupt COM mid-frame: the in-progress frame dies with it.
	ras, vst := mk()
	if _, err := ras.Push(&cells[0], atm.PTUser0); err != nil {
		t.Fatal(err)
	}
	bad := cells[1]
	bad[10] ^= 0xff
	if _, err := ras.Push(&bad, atm.PTUser0); !errors.Is(err, ErrBadCellCRC) {
		t.Fatalf("err = %v, want ErrBadCellCRC", err)
	}
	if vst.CRCErrors != 1 || vst.MidFrameKills != 1 {
		t.Fatalf("mid-frame: crc=%d kills=%d, want 1/1", vst.CRCErrors, vst.MidFrameKills)
	}
	if ras.Busy() {
		t.Fatal("killed frame still pinned")
	}

	// The same corruption with no frame in progress: no kill charged.
	ras, vst = mk()
	bad = cells[0]
	bad[10] ^= 0xff
	if _, err := ras.Push(&bad, atm.PTUser0); !errors.Is(err, ErrBadCellCRC) {
		t.Fatalf("err = %v, want ErrBadCellCRC", err)
	}
	if vst.CRCErrors != 1 || vst.MidFrameKills != 0 {
		t.Fatalf("isolated: crc=%d kills=%d, want 1/0", vst.CRCErrors, vst.MidFrameKills)
	}
}
