package tm

import (
	"fmt"

	"repro/internal/sim"
)

// gcra is one virtual-scheduling leaky bucket (ITU-T I.371 Annex A): TAT is
// the theoretical arrival time of the next conforming cell, inc the
// per-cell increment (1/rate), limit the tolerance. A cell arriving at t is
// conforming iff t >= TAT - limit; on conformance TAT advances by inc from
// max(t, TAT). The zero value is an empty bucket (first cell conforms).
type gcra struct {
	tat   sim.Time
	inc   sim.Duration
	limit sim.Duration
}

// conforms runs the conformance test WITHOUT committing the state update.
func (g *gcra) conforms(t sim.Time) bool {
	return t >= g.tat-g.limit
}

// commit advances TAT for a cell accepted at t.
func (g *gcra) commit(t sim.Time) {
	if t > g.tat {
		g.tat = t
	}
	g.tat += g.inc
}

// Verdict is the policer's decision for one cell.
type Verdict uint8

const (
	// Conform: the cell honours the contract; forward unchanged.
	Conform Verdict = iota
	// TagCLP: the cell violates the sustained bucket; forward with CLP=1
	// so it is first to die at a congested queue (the TM 4.0 tagging
	// option for SCR0+1 conformance).
	TagCLP
	// Discard: the cell violates the peak bucket (or tagging is off);
	// drop it at the policing point.
	Discard
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case Conform:
		return "conform"
	case TagCLP:
		return "tag-clp"
	case Discard:
		return "discard"
	default:
		return fmt.Sprintf("Verdict(%d)", uint8(v))
	}
}

// PolicerStats counts one policer's decisions.
type PolicerStats struct {
	Cells     uint64 // cells offered
	Conformed uint64
	Tagged    uint64 // forwarded with CLP demoted to 1
	Discarded uint64
}

// Policer enforces one connection's TrafficContract at a network ingress
// (UPC). It runs the single- or dual-bucket GCRA per cell:
//
//   - bucket 1 polices PCR with tolerance CDVT; violation => Discard
//     (peak violations are never tagged — TM 4.0 gives PCR policing no
//     tagging option for CLP=0+1 flows);
//   - bucket 2 (contracts with SCR) polices SCR with tolerance BT+CDVT;
//     violation => TagCLP when TagSCR is set, else Discard. Cells already
//     carrying CLP=1 are not re-tagged: an SCR violation discards them
//     (they spent the tagged budget upstream).
//
// The conformance check is pure integer compare/add on two buckets —
// the hardware UPC table walk of the era — and allocates nothing
// (pinned by metrics.TestHotPathAllocs).
type Policer struct {
	peak gcra
	sust gcra
	dual bool
	// TagSCR selects the tagging option for sustained-bucket violations:
	// demote CLP and forward instead of discarding.
	TagSCR bool

	stats PolicerStats
}

// NewPolicer builds a policer for the contract. The contract must be valid.
func NewPolicer(c TrafficContract) *Policer {
	if err := c.Validate(); err != nil {
		panic("tm: " + err.Error())
	}
	p := &Policer{
		peak: gcra{inc: c.PeakIncrement(), limit: c.CDVT},
		dual: c.Dual(),
	}
	if p.dual {
		p.sust = gcra{inc: c.SustainedIncrement(), limit: c.BurstTolerance() + c.CDVT}
	}
	return p
}

// Stats returns the decision counters.
func (p *Policer) Stats() PolicerStats { return p.stats }

// Police runs the conformance test for one cell arriving at time t with
// the given CLP bit, and returns the action. Buckets advance only for
// cells that are forwarded (conforming or tagged): a discarded cell must
// not consume contract capacity, or a violator could starve its own
// conforming traffic.
func (p *Policer) Police(t sim.Time, clp bool) Verdict {
	p.stats.Cells++
	if !p.peak.conforms(t) {
		p.stats.Discarded++
		return Discard
	}
	if p.dual && !p.sust.conforms(t) {
		if p.TagSCR && !clp {
			p.peak.commit(t)
			p.stats.Tagged++
			return TagCLP
		}
		p.stats.Discarded++
		return Discard
	}
	p.peak.commit(t)
	if p.dual {
		p.sust.commit(t)
	}
	p.stats.Conformed++
	return Conform
}

// Shaper computes conforming departure times for a connection's own
// contract: the transmit-side dual of the Policer, run by the NIC's
// segmentation engine (Interface.SetContract). After each cell is emitted,
// NextEligible returns the earliest time the next cell may leave such that
// a policer enforcing the same contract sees zero non-conforming cells —
// cells leave at PCR until the sustained bucket's burst tolerance is
// spent, then at SCR. The shaper deliberately leaves the policer's CDVT
// margin unspent: that budget absorbs the downstream FIFO and
// multiplexing jitter the shaper cannot see.
type Shaper struct {
	peak gcra
	sust gcra
	dual bool
}

// NewShaper builds a shaper for the contract. The contract must be valid.
func NewShaper(c TrafficContract) *Shaper {
	if err := c.Validate(); err != nil {
		panic("tm: " + err.Error())
	}
	s := &Shaper{
		peak: gcra{inc: c.PeakIncrement()},
		dual: c.Dual(),
	}
	if s.dual {
		// The shaper grants itself the full burst tolerance (that is what
		// MBS promises the source) but none of the CDVT.
		s.sust = gcra{inc: c.SustainedIncrement(), limit: c.BurstTolerance()}
	}
	return s
}

// NextEligible records a cell emitted at time t and returns the earliest
// departure time of the next cell. Allocation-free.
func (s *Shaper) NextEligible(t sim.Time) sim.Time {
	s.peak.commit(t)
	s.sust.commit(t) // harmless when !dual: inc 0
	next := s.peak.tat
	if s.dual {
		if e := s.sust.tat - s.sust.limit; e > next {
			next = e
		}
	}
	return next
}

// Eligible returns the earliest departure time of the next cell without
// recording an emission — the value the last NextEligible returned, under
// whatever rate is current now.
func (s *Shaper) Eligible() sim.Time {
	next := s.peak.tat
	if s.dual {
		if e := s.sust.tat - s.sust.limit; e > next {
			next = e
		}
	}
	return next
}

// SetRate re-targets the peak bucket to a new rate mid-flow — the ACR
// adjustment the ABR source rules need on every backward RM cell. The
// bucket's outstanding debt is re-derived, not merely re-priced: whatever
// fraction of one emission interval the VC still owed at the old rate, it
// owes the same fraction of the new interval. Concretely, with the bucket
// ahead of now by d = TAT − now,
//
//	TAT' = now + d × (inc_new / inc_old)
//
// Scaling (rather than keeping TAT) means a rate increase takes effect
// within one cell slot instead of stalling until the old slow TAT drains;
// re-deriving (rather than resetting TAT = now) means a rate decrease
// cannot hand the VC a credit windfall that lets it burst at the old rate
// one last time. A bucket at or behind now stays where it is — an idle VC
// earns nothing from a rate change. Dual-bucket (SCR) shapers keep their
// sustained bucket untouched: ABR contracts are single-bucket.
func (s *Shaper) SetRate(now sim.Time, rate float64) {
	if rate <= 0 {
		panic("tm: Shaper.SetRate needs rate > 0")
	}
	newInc := sim.Duration(1e9/rate + 0.5)
	if old := s.peak.inc; s.peak.tat > now && old > 0 {
		debt := float64(s.peak.tat - now)
		s.peak.tat = now + sim.Duration(debt*float64(newInc)/float64(old)+0.5)
	}
	s.peak.inc = newInc
}
