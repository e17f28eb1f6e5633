// Package trace captures timestamped cells at any tap point in a simulated
// network — the logic-analyzer-on-the-fiber every real bring-up of the
// board needed. Captures can be filtered, summarized per VC, and dumped in
// a text format cellview understands.
package trace

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/atm"
	"repro/internal/metrics"
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
	// Filter, when non-nil, keeps only cells it returns true for.
	Filter func(*atm.Cell) bool
	// Limit bounds stored records (0 = unlimited); the capture keeps the
	// FIRST Limit matches and counts the rest.
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
		c.observe(cell)
		next(cell)
	}
}

func (c *Capture) observe(cell *atm.Cell) {
	if c.Filter != nil && !c.Filter(cell) {
		return
	}
	if c.Limit > 0 && len(c.records) >= c.Limit {
		c.overflow++
		return
	}
	c.records = append(c.records, Record{At: c.k.Now(), Cell: *cell})
}

// Records returns the captured cells in arrival order.
func (c *Capture) Records() []Record { return c.records }

// Overflowed reports matches discarded after Limit was reached. A non-zero
// value means the capture is a truncated prefix, not the full cell stream.
func (c *Capture) Overflowed() uint64 { return c.overflow }

// Reset clears the capture.
func (c *Capture) Reset() {
	c.records = c.records[:0]
	c.overflow = 0
}

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
// that hit its Limit reports the discarded matches in Overflowed — the per-VC
// numbers then describe only the stored prefix.
type Summary struct {
	PerVC      []VCStats
	Stored     int    // records kept
	Overflowed uint64 // matches discarded after Limit
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

// Timed measures per-cell ingress→egress latency across a stretch of the
// datapath — typically the two ends of a link — and feeds each sample into a
// latency histogram. Cells are matched in FIFO order, which is exact for a
// lossless, order-preserving path; on a lossy path the match skews and
// Unmatched counts egress cells that had no recorded ingress.
type Timed struct {
	k    *sim.Kernel
	cap  *Capture
	hist *metrics.Histogram

	times     []sim.Time
	head      int
	matched   uint64
	unmatched uint64
}

// TapTimed creates a latency tap bound to this capture. Wrap the sending
// side with Ingress and the receiving side with Egress:
//
//	tt := cap.TapTimed(reg.Histogram("vcc.ab.latency"))
//	a.AttachSink(atm.SinkFunc(tt.Ingress(link.Send)))
//	link.AttachSink(atm.SinkFunc(tt.Egress(b.DeliverCell)))
//
// (core.VCCSpec.Latency wires exactly this around a connection.)
//
// Ingress also records the cell into the capture, like Tap.
func (c *Capture) TapTimed(h *metrics.Histogram) *Timed {
	return &Timed{k: c.k, cap: c, hist: h}
}

// Ingress wraps the upstream end: the cell is recorded and timestamped, then
// passed through unchanged.
func (t *Timed) Ingress(next func(*atm.Cell)) func(*atm.Cell) {
	return func(cell *atm.Cell) {
		t.cap.observe(cell)
		if t.head > 0 && t.head == len(t.times) {
			t.times = t.times[:0]
			t.head = 0
		}
		t.times = append(t.times, t.k.Now())
		next(cell)
	}
}

// Egress wraps the downstream end: the oldest outstanding ingress stamp is
// consumed and the elapsed time observed into the histogram.
func (t *Timed) Egress(next func(*atm.Cell)) func(*atm.Cell) {
	return func(cell *atm.Cell) {
		if t.head < len(t.times) {
			t.hist.Observe(t.k.Now() - t.times[t.head])
			t.head++
			t.matched++
		} else {
			t.unmatched++
		}
		next(cell)
	}
}

// Matched reports cells whose latency was observed.
func (t *Timed) Matched() uint64 { return t.matched }

// Unmatched reports egress cells that arrived with no outstanding ingress
// stamp (possible only when the path loses, reorders or injects cells).
func (t *Timed) Unmatched() uint64 { return t.unmatched }

// Outstanding reports cells currently in flight between the taps.
func (t *Timed) Outstanding() int { return len(t.times) - t.head }

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
