package aal

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/atm"
	"repro/internal/metrics"
)

// MIDReassembler34 demultiplexes AAL3/4's 10-bit multiplexing identifier:
// the one capability AAL3/4 has that AAL5 gave up. Multiple senders'
// frames can interleave cell-by-cell on a single VC, each stream tagged by
// its MID; this wrapper keeps an independent reassembly state per MID.
//
// This is what made AAL3/4 attractive for connectionless service (SMDS) and
// shared-VC LAN emulation, at the price of the 4-byte per-cell tax the E3
// experiment quantifies.
//
// It is a Reassembler like any other: each Result carries the MID of the
// cells that made it.
type MIDReassembler34 struct {
	maxFrame int
	maxMIDs  int
	streams  map[uint16]*Reassembler34
	vst      *metrics.VCStats
	clock    func() int64
}

// SetVCStats attaches the shared VC's telemetry row; every MID stream's
// reassembly errors accumulate into it (the VC is the accounting unit, the
// MID only the interleaving key).
func (m *MIDReassembler34) SetVCStats(s *metrics.VCStats) {
	m.vst = s
	for _, ras := range m.streams {
		ras.SetVCStats(s)
	}
}

// SetClock implements StaleReaper for every MID stream (current and future).
func (m *MIDReassembler34) SetClock(now func() int64) {
	m.clock = now
	for _, ras := range m.streams {
		ras.SetClock(now)
	}
}

// Busy implements StaleReaper: true while any MID slot holds a partial frame.
func (m *MIDReassembler34) Busy() bool { return len(m.streams) > 0 }

// ExpireStale implements StaleReaper: every MID slot whose partial frame
// has gone stale is aborted and reclaimed — the leak path a lost EOM on an
// interleaved stream opens, since nothing else ever deletes that slot.
// Slots are visited in MID order so the reclaim sequence is deterministic.
func (m *MIDReassembler34) ExpireStale(olderThan int64) int {
	if len(m.streams) == 0 {
		return 0
	}
	mids := make([]int, 0, len(m.streams))
	for mid := range m.streams {
		mids = append(mids, int(mid))
	}
	sort.Ints(mids)
	n := 0
	for _, mid := range mids {
		ras := m.streams[uint16(mid)]
		if ras.ExpireStale(olderThan) > 0 {
			n++
		}
		if !ras.inFrame {
			delete(m.streams, uint16(mid))
		}
	}
	return n
}

// ErrTooManyMIDs is returned when a new MID would exceed the configured
// concurrent-stream limit (the board's per-VC state memory is finite).
var ErrTooManyMIDs = errors.New("aal: too many concurrent MIDs on one VC")

// NewMIDReassembler34 builds a MID demultiplexer; maxMIDs bounds concurrent
// interleaved frames (0 = 16, a plausible adapter table size), maxFrame as
// for NewReassembler34.
func NewMIDReassembler34(maxFrame, maxMIDs int) *MIDReassembler34 {
	if maxMIDs <= 0 {
		maxMIDs = 16
	}
	return &MIDReassembler34{
		maxFrame: maxFrame,
		maxMIDs:  maxMIDs,
		streams:  make(map[uint16]*Reassembler34),
	}
}

// MIDOf extracts the multiplexing identifier from an AAL3/4 SAR payload.
func MIDOf(payload *[atm.PayloadSize]byte) uint16 {
	return uint16(payload[0]&0x3)<<8 | uint16(payload[1])
}

// Type implements Reassembler.
func (m *MIDReassembler34) Type() Type { return AAL34 }

// Push implements Reassembler: it routes one cell to its MID's stream and
// returns that stream's completed frame (if any), tagged with the MID, and
// any per-stream error. An idle stream's state is reclaimed when its frame
// completes or dies.
func (m *MIDReassembler34) Push(payload *[atm.PayloadSize]byte, pt atm.PT) (*Result, error) {
	mid := MIDOf(payload)
	ras, ok := m.streams[mid]
	if !ok {
		if len(m.streams) >= m.maxMIDs {
			return nil, fmt.Errorf("%w: %d active", ErrTooManyMIDs, len(m.streams))
		}
		ras = NewReassembler34(m.maxFrame)
		ras.SetVCStats(m.vst)
		ras.SetClock(m.clock)
		m.streams[mid] = ras
	}
	res, err := ras.Push(payload, pt)
	// Reclaim state when the stream returns to idle: a completed frame or
	// a mid-frame abort both leave the sub-reassembler out of frame.
	if res != nil || (err != nil && !ras.inFrame) {
		delete(m.streams, mid)
	}
	if res != nil {
		res.MID = mid
	}
	return res, err
}

// Active reports whether MID mid has a frame mid-reassembly.
func (m *MIDReassembler34) Active(mid uint16) bool {
	_, ok := m.streams[mid]
	return ok
}

// Abort implements Reassembler: it discards every MID's partial frame.
func (m *MIDReassembler34) Abort() {
	for mid := range m.streams {
		m.AbortMID(mid)
	}
}

// AbortMID discards MID mid's partial frame, leaving the other streams
// reassembling.
func (m *MIDReassembler34) AbortMID(mid uint16) {
	if ras, ok := m.streams[mid]; ok {
		ras.Abort()
		delete(m.streams, mid)
	}
}
