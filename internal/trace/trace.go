// Package trace observes a simulated network. Recorder is the flight
// recorder and the one tracing model: per-cell stage spans at every hop,
// each recorded whole as the cell leaves its stage, summed into per-stage
// residency (where a connection's per-hop latency comes from) and exported
// as Perfetto trace JSON. Sampler snapshots registry counters on a fixed
// period. Capture records the timestamped cells passing one tap point — the
// logic analyzer on the fiber every real bring-up of the board needed — and
// summarizes them per VC or dumps them in a text format cellview
// understands.
package trace

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/atm"
	"repro/internal/sim"
)

// Record is one captured cell.
type Record struct {
	At   sim.Time
	Cell atm.Cell
}

// Capture accumulates records at a tap point.
type Capture struct {
	k *sim.Kernel
	// Limit bounds stored records (0 = unlimited); the capture keeps the
	// FIRST Limit cells and counts the rest.
	Limit int

	records  []Record
	overflow uint64
}

// New creates a capture on kernel k.
func New(k *sim.Kernel) *Capture { return &Capture{k: k} }

// Tap wraps a cell sink so that cells flow through unchanged while being
// recorded. Use it around a link's Send or an interface's DeliverCell:
//
//	iface.AttachSink(atm.SinkFunc(cap.Tap(link.Send)))
func (c *Capture) Tap(next func(*atm.Cell)) func(*atm.Cell) {
	return func(cell *atm.Cell) {
		if c.Limit > 0 && len(c.records) >= c.Limit {
			c.overflow++
		} else {
			c.records = append(c.records, Record{At: c.k.Now(), Cell: *cell})
		}
		next(cell)
	}
}

// Records returns the captured cells in arrival order.
func (c *Capture) Records() []Record { return c.records }

// VCStats is a per-connection capture summary.
type VCStats struct {
	VC       atm.VC
	Cells    int
	Frames   int // end-of-frame cells seen (AAL5 boundaries)
	First    sim.Time
	Last     sim.Time
	MeanGap  sim.Duration // mean inter-cell gap
	OAMCells int
}

// Summary is the aggregate view of a capture: per-VC statistics plus the
// totals a reader needs to judge whether the capture is complete. A capture
// that hit its Limit reports the discarded cells in Overflowed — the per-VC
// numbers then describe only the stored prefix.
type Summary struct {
	PerVC      []VCStats
	Stored     int    // records kept
	Overflowed uint64 // cells discarded after Limit
}

// Summary aggregates the capture per VC, sorted by (VPI, VCI), together
// with the stored/overflowed accounting.
func (c *Capture) Summary() Summary {
	return Summary{PerVC: c.perVC(), Stored: len(c.records), Overflowed: c.overflow}
}

func (c *Capture) perVC() []VCStats {
	byVC := map[atm.VC]*VCStats{}
	prev := map[atm.VC]sim.Time{}
	var gapSum map[atm.VC]sim.Duration = map[atm.VC]sim.Duration{}
	for _, r := range c.records {
		vc := r.Cell.Header.VC()
		st := byVC[vc]
		if st == nil {
			st = &VCStats{VC: vc, First: r.At}
			byVC[vc] = st
		}
		if st.Cells > 0 {
			gapSum[vc] += r.At - prev[vc]
		}
		prev[vc] = r.At
		st.Cells++
		st.Last = r.At
		if !r.Cell.Header.PT.User() {
			st.OAMCells++
		} else if r.Cell.Header.PT.EndOfFrame() {
			st.Frames++
		}
	}
	out := make([]VCStats, 0, len(byVC))
	for vc, st := range byVC {
		if st.Cells > 1 {
			st.MeanGap = gapSum[vc] / sim.Duration(st.Cells-1)
		}
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].VC.VPI != out[j].VC.VPI {
			return out[i].VC.VPI < out[j].VC.VPI
		}
		return out[i].VC.VCI < out[j].VC.VCI
	})
	return out
}

// Dump writes the capture as text: one line per cell with timestamp,
// header fields and the leading payload bytes, cellview-compatible hex
// last on the line.
func (c *Capture) Dump(w io.Writer) error {
	for i, r := range c.records {
		h := &r.Cell.Header
		var wire [atm.CellSize]byte
		if err := r.Cell.Encode(wire[:]); err != nil {
			return fmt.Errorf("trace: record %d: %w", i, err)
		}
		if _, err := fmt.Fprintf(w, "%6d %12v vc=%v pt=%03b clp=%v  %x\n",
			i, r.At, h.VC(), h.PT, h.CLP, wire[:12]); err != nil {
			return err
		}
	}
	if c.overflow > 0 {
		if _, err := fmt.Fprintf(w, "... %d further matches not stored (limit)\n", c.overflow); err != nil {
			return err
		}
	}
	return nil
}
