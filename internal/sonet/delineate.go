package sonet

import (
	"repro/internal/crc"
)

// DelineationState is the I.432 cell-delineation state.
type DelineationState uint8

const (
	// Hunt: sliding byte-by-byte looking for one valid HEC.
	Hunt DelineationState = iota
	// Presync: candidate boundary found; needs delta consecutive valid
	// HECs at cell spacing to be trusted.
	Presync
	// Sync: locked; alpha consecutive bad HECs lose lock.
	Sync
)

// String implements fmt.Stringer.
func (s DelineationState) String() string {
	switch s {
	case Hunt:
		return "HUNT"
	case Presync:
		return "PRESYNC"
	case Sync:
		return "SYNC"
	default:
		return "?"
	}
}

// I.432 recommends delta=6 and alpha=7.
const (
	DefaultDelta = 6
	DefaultAlpha = 7
)

// DelineatorStats counts delineation events.
type DelineatorStats struct {
	Cells           uint64 // cells delivered (valid or corrected header)
	HeaderCorrected uint64 // single-bit header errors fixed
	HeaderDropped   uint64 // cells dropped for uncorrectable headers in SYNC
	SyncLosses      uint64 // SYNC → HUNT transitions
	SyncAcquired    uint64 // PRESYNC → SYNC transitions
}

// Delineator implements HEC-based cell delineation over a byte stream, and
// descrambles each located cell's information field. Found cells are passed
// to the sink callback as 53 clear-text bytes (the slice is reused; the sink
// must copy what it keeps). A header reaches the sink only once its HEC has
// checked, after single-bit correction (reported by corrected), so the sink
// need not check it again; an uncorrectable header in SYNC is counted in
// HeaderDropped and never handed up.
type Delineator struct {
	Delta int
	Alpha int

	state   DelineationState
	window  []byte // pending bytes not yet consumed
	goodRun int    // consecutive good HECs in PRESYNC
	badRun  int    // consecutive bad HECs in SYNC
	cs      cellScrambler
	cell    [53]byte
	sink    func(cell []byte, corrected bool)
	stats   DelineatorStats
}

// NewDelineator returns a delineator in HUNT state delivering cells to sink.
func NewDelineator(sink func(cell []byte, corrected bool)) *Delineator {
	if sink == nil {
		panic("sonet: nil delineation sink") // a wiring bug: no spec or wire byte reaches it
	}
	return &Delineator{Delta: DefaultDelta, Alpha: DefaultAlpha, sink: sink}
}

// State returns the current delineation state.
func (d *Delineator) State() DelineationState { return d.state }

// Stats returns cumulative counters.
func (d *Delineator) Stats() DelineatorStats { return d.stats }

// hecOK checks the 5 bytes at w[0:5] for an exactly matching HEC. Used in
// HUNT and PRESYNC, where I.432 disables single-bit correction: accepting
// correctable windows would make ~16% of random offsets look like cell
// boundaries and delineation would false-lock constantly.
func hecOK(w []byte) bool {
	return crc.HECOK(w)
}

// Push feeds payload-stream bytes to the delineator.
func (d *Delineator) Push(p []byte) {
	// SYNC fast path: consume whole cells straight from the pushed slice,
	// bypassing the staging window. A partial cell left from the previous
	// push is first topped up and consumed, then cells are read at 53-byte
	// stride until the tail (or a loss of lock) falls back to the window.
	// Steady-state delineation therefore copies each payload byte once and
	// never grows the window.
	if d.state == Sync && len(d.window) > 0 && len(d.window) < 53 && len(d.window)+len(p) >= 53 {
		need := 53 - len(d.window)
		d.window = append(d.window, p[:need]...)
		p = p[need:]
		d.syncCell(d.window)
		d.window = d.window[:0]
	}
	for d.state == Sync && len(d.window) == 0 && len(p) >= 53 {
		still := d.syncCell(p)
		p = p[53:]
		if !still {
			break
		}
	}
	if len(p) == 0 {
		d.compact()
		return
	}
	d.window = append(d.window, p...)
	for {
		switch d.state {
		case Hunt:
			// Slide until a window with a valid HEC appears.
			for len(d.window) >= 5 {
				if hecOK(d.window) {
					d.state = Presync
					d.goodRun = 0
					break
				}
				d.window = d.window[1:]
			}
			if d.state == Hunt {
				d.compact()
				return
			}
		case Presync:
			// Confirm delta more boundaries at exact cell spacing.
			// The candidate cell at window[0:53] is consumed without
			// delivery (its payload predates descrambler sync).
			if len(d.window) < 53 {
				d.compact()
				return
			}
			if !hecOK(d.window) {
				// False lock: resume hunting one byte on.
				d.window = d.window[1:]
				d.state = Hunt
				continue
			}
			// Keep the descrambler fed even though we discard.
			info := (*[48]byte)(d.window[5:53])
			d.cs.descramble(info, info)
			d.window = d.window[53:]
			d.goodRun++
			if d.goodRun >= d.Delta {
				d.state = Sync
				d.badRun = 0
				d.stats.SyncAcquired++
			}
		case Sync:
			if len(d.window) < 53 {
				d.compact()
				return
			}
			d.syncCell(d.window)
			d.window = d.window[53:]
		}
	}
}

// syncCell consumes one 53-byte cell slot in SYNC state from w (which is not
// modified) and reports whether the delineator is still in SYNC afterwards.
func (d *Delineator) syncCell(w []byte) bool {
	// The header is checked, and corrected, in the cell buffer itself.
	copy(d.cell[:5], w[:5])
	ok, corrected := crc.HECCheck((*[5]byte)(d.cell[:5]))
	// The descrambler register depends only on received line bits, so a
	// dropped cell's slot still passes through it.
	d.cs.descramble((*[48]byte)(d.cell[5:]), (*[48]byte)(w[5:53]))
	if !ok {
		d.badRun++
		d.stats.HeaderDropped++
		if d.badRun >= d.Alpha {
			d.state = Hunt
			d.stats.SyncLosses++
			return false
		}
		return true
	}
	d.badRun = 0
	if corrected {
		d.stats.HeaderCorrected++
	}
	d.stats.Cells++
	d.sink(d.cell[:], corrected)
	return d.state == Sync
}

// compact bounds the pending window's backing array. Without this the
// append/reslice pattern would pin every frame ever pushed.
func (d *Delineator) compact() {
	if cap(d.window) > 4*53 && len(d.window) < 53 {
		w := make([]byte, len(d.window), 2*53)
		copy(w, d.window)
		d.window = w
	}
}
