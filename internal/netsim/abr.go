package netsim

import (
	"repro/internal/atm"
	"repro/internal/sim"
	"repro/internal/tm"
)

// This file is the switch half of the ABR closed loop: EFCI marking is in
// switch.go's enqueue (SetThresholds arms it); here lives ERICA — the
// Explicit Rate Indication for Congestion Avoidance algorithm of
// Jain/Kalyanaraman/Goyal/Fahmy — which turns per-output-port load
// measurements into the ER field of backward RM cells.
//
// Per averaging interval the port measures its ABR input rate, the set of
// active ABR VCs, and the input rate of higher-priority (CBR/VBR) traffic.
// At each interval boundary it computes
//
//	ABRCapacity = TargetUtil × LinkRate − HigherPriorityRate
//	z           = ABRInputRate / ABRCapacity     (the overload factor)
//	FairShare   = ABRCapacity / NumActiveVCs
//
// and every backward RM cell passing the port is then stamped with
//
//	ER = min(ERin, ABRCapacity, max(FairShare, CCR/z))
//
// The max(FairShare, CCR/z) term is what makes ERICA max-min fair and
// fast: an underloaded port (z < 1) invites every VC above its fair share
// to keep the spare capacity, while an overloaded port (z > 1) pushes each
// VC toward CCR/z so the aggregate lands exactly on ABRCapacity — and no
// VC is ever pushed below the fair share.
type ERICAConfig struct {
	// TargetUtil is the utilization ERICA steers the ABR aggregate toward;
	// the (1 − TargetUtil) headroom is what drains the queue after a
	// transient. Default 0.9.
	TargetUtil float64
	// Interval is the measurement averaging interval. Shorter tracks
	// transients faster but measures noisier rates; it should cover at
	// least a few dozen cell times of the port. Default 500 µs.
	Interval sim.Duration
}

// normalize fills defaults.
func (c *ERICAConfig) normalize() {
	if c.TargetUtil <= 0 || c.TargetUtil > 1 {
		c.TargetUtil = 0.9
	}
	if c.Interval <= 0 {
		c.Interval = 500 * sim.Microsecond
	}
}

// ericaPort is the per-output-port ERICA state.
type ericaPort struct {
	cfg  ERICAConfig
	port *swPort // for the current drain rate (SetPortRate may change it)

	intervalStart sim.Time
	abrIn         int // ABR cells offered this interval (RM cells included)
	otherIn       int // higher-priority cells offered this interval

	// interval numbers the averaging intervals from 1, and nActive counts
	// the ABR VCs offered a cell in the current one: each VC's output
	// record holds the interval in which it last counted, and its CCR.
	interval uint64
	nActive  int

	// Results of the last completed interval.
	have      bool
	abrCap    float64 // cells/s available to ABR
	fairShare float64
	overload  float64 // z
}

// EnableERICA arms explicit-rate computation on an output port: the port
// starts measuring, and every backward RM cell arriving on the same port's
// input side (i.e. travelling the reverse direction of this output's
// fiber) gets its ER field reduced to ERICA's allocation.
func (s *Switch) EnableERICA(port int, cfg ERICAConfig) {
	cfg.normalize()
	p := s.port(port)
	for _, r := range p.recs {
		r.ccr, r.activeIn = 0, 0
	}
	p.erica = &ericaPort{
		cfg:           cfg,
		port:          p,
		intervalStart: s.k.Now(),
		interval:      1,
	}
}

// linkRate returns the port's drain rate in cells/s.
func (e *ericaPort) linkRate() float64 {
	return 1e9 / float64(e.port.cellTime)
}

// targetRate returns the utilization-scaled capacity in cells/s.
func (e *ericaPort) targetRate() float64 {
	return e.cfg.TargetUtil * e.linkRate()
}

// rollover closes the averaging interval if now has passed its end,
// computing the capacity, overload factor and fair share the next
// interval's stampings use.
func (e *ericaPort) rollover(now sim.Time) {
	elapsed := now - e.intervalStart
	if elapsed < e.cfg.Interval {
		return
	}
	sec := float64(elapsed) / 1e9
	abrRate := float64(e.abrIn) / sec
	otherRate := float64(e.otherIn) / sec

	avail := e.targetRate() - otherRate
	if avail < 1 {
		avail = 1 // a saturated port still advertises a token rate
	}
	n := max(e.nActive, 1)
	e.abrCap = avail
	e.fairShare = avail / float64(n)
	e.overload = abrRate / avail
	e.have = true

	e.intervalStart = now
	e.abrIn, e.otherIn = 0, 0
	e.interval++
	e.nActive = 0
}

// observe accounts one cell offered to the output port (called for every
// arrival, before any drop decision — input rate, not carried rate, is
// what the overload factor measures); rec is the cell's VC record on this
// port. Forward RM cells additionally refresh the VC's declared CCR.
func (e *ericaPort) observe(now sim.Time, class tm.ServiceClass, rec *vcRecord, c *atm.Cell) {
	e.rollover(now)
	switch class {
	case tm.ABR:
		e.abrIn++
		if rec.activeIn != e.interval {
			rec.activeIn = e.interval
			e.nActive++
		}
	case tm.UBR:
		// Best-effort scavenges below ABR; it neither consumes ABR
		// capacity nor counts as higher-priority load.
	default: // CBR, rt-VBR
		e.otherIn++
	}
	if c.Header.PT == atm.PTResourceMgmt {
		var rm atm.RM
		if rm.Decode(&c.Payload) == nil && !rm.DIR {
			rec.ccr = rm.CCR
		}
	}
}

// explicitRate returns the ER to stamp into a backward RM cell that arrived
// carrying erIn, for a VC whose last declared CCR is ccr. Before the first
// completed interval the port has no measurement and only caps at the
// utilization target.
func (e *ericaPort) explicitRate(now sim.Time, ccr, erIn float64) float64 {
	e.rollover(now)
	if !e.have {
		if t := e.targetRate(); erIn > t {
			return t
		}
		return erIn
	}
	er := e.fairShare
	if e.overload > 0 {
		if vcShare := ccr / e.overload; vcShare > er {
			er = vcShare
		}
	} else {
		er = e.abrCap // no measured load: the whole capacity is on offer
	}
	if er > e.abrCap {
		er = e.abrCap
	}
	if er > erIn {
		er = erIn
	}
	return er
}

// rmReceive runs the switch's backward-RM behaviour for an RM cell
// arriving on input port p: if that port's output side runs ERICA, the
// cell is travelling the reverse direction of the congested fiber, and its
// ER field is reduced to the port's allocation. The duplex route symmetry
// (core installs the reverse route on the same port pair with the same
// VCs) is what makes "arrival port" the right key: a backward RM cell
// arrives exactly where its connection's forward cells depart, so rev, the
// arrival port's output record for the cell's VC, holds the CCR its
// forward RM cells declared.
func (s *Switch) rmReceive(p *swPort, rev *vcRecord, c *atm.Cell) {
	e := p.erica
	if e == nil {
		return
	}
	var rm atm.RM
	if rm.Decode(&c.Payload) != nil || !rm.DIR {
		return
	}
	er := e.explicitRate(s.k.Now(), rev.ccr, rm.ER)
	if er < rm.ER {
		rm.ER = er
		rm.Encode(&c.Payload)
		s.mER.Inc()
	}
}
