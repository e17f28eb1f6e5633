// Package netsim is the network's switch: the output-queued ATM switch
// with its traffic management and ABR feedback. core.NewNetwork assembles
// switches, with its endpoints, into topologies.
package netsim

import (
	"fmt"
	"slices"

	"repro/internal/atm"
	"repro/internal/fifo"
	"repro/internal/metrics"
	"repro/internal/oam"
	"repro/internal/sim"
	"repro/internal/tm"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/vclookup"
)

// Switch is a small output-queued ATM switch: cells arriving on any input
// port are routed by (input port, VC) to one or more output ports,
// optionally with VC translation, and drain onto the output fiber at the
// port's cell rate. Labels are link-local, so each input port translates
// through its own table, and every per-VC record a cell needs is resolved
// when its route is set: a cell costs one table lookup at the input port.
//
// Output buffering is a shared per-port budget of queueDepth cells split
// across one queue per service class (tm.ServiceClass); the drain is strict
// priority — CBR first, then rt-VBR, then ABR, UBR last. Congestion controls, all off
// by default so the zero configuration behaves like the original blind
// tail-drop switch:
//
//   - SetPolicer installs a GCRA policer (UPC) on an input-port VC; cells
//     are policed before routing and either pass, get their CLP demoted,
//     or are discarded at the ingress;
//   - SetThresholds arms a CLP threshold (arriving discard-eligible cells
//     are dropped once the port occupancy reaches it), an EPD threshold
//     (a new AAL5 frame arriving above it is refused whole — Early Packet
//     Discard — and a frame that loses a cell mid-flight has its remainder
//     dropped, Partial Packet Discard, with the final EOF cell forwarded
//     to preserve frame delineation for the reassembler), and an EFCI
//     threshold (user cells committed to the queue at or above it leave
//     with the EFCI congestion bit set — the binary half of the ABR
//     feedback loop);
//   - EnableERICA (abr.go) arms explicit-rate feedback on an output port:
//     backward RM cells get their ER field reduced to the port's measured
//     max-min allocation.
type Switch struct {
	k        *sim.Kernel
	pool     *atm.Pool // the kernel's cell pool: discards recycle here
	name     string
	ports    []*swPort
	conduits []*SwitchPort

	// AISPeriod arms F5 fault management: while any input port has lost
	// its signal, the switch inserts one AIS cell per period downstream on
	// every route fed by that port, so endpoints learn of the failure in
	// about one period instead of by higher-layer timeout. Zero (default)
	// disables generation.
	AISPeriod sim.Duration

	portDown   []bool
	aisTicking bool
	aisTickFn  func()

	// Free list of pooled fabric-transit records, so per-cell switching
	// costs no closure or event allocation (see swDefer).
	freeDefer *swDefer

	// The frame counts have no registry name yet; every other count is a
	// registry instrument.
	epdFrames, ppdFrames uint64

	reg     *metrics.Registry
	mTag    *metrics.Counter
	mPolDrp *metrics.Counter
	mEPD    *metrics.Counter
	mPPD    *metrics.Counter
	mCLP    *metrics.Counter
	mNoRt   *metrics.Counter
	mBcast  *metrics.Counter
	mAIS    *metrics.Counter
	mEFCI   *metrics.Counter
	mER     *metrics.Counter
}

// SwitchStats counts switch events.
type SwitchStats struct {
	Routed     uint64
	Dropped    uint64 // output-queue overflows (tail drop)
	NoRoute    uint64
	Broadcasts uint64

	PolicedTagged    uint64 // cells forwarded with CLP demoted by UPC
	PolicedDiscarded uint64 // cells discarded by UPC
	CLPDropped       uint64 // CLP=1 cells dropped at the CLP threshold
	EPDFrames        uint64 // frames refused whole at the EPD threshold
	EPDCells         uint64 // cells belonging to EPD-refused frames
	PPDFrames        uint64 // frames truncated after a mid-frame loss
	PPDCells         uint64 // tail cells dropped by PPD
	AISCells         uint64 // AIS cells generated for failed input ports
	EFCIMarked       uint64 // user cells marked EFCI at the queue threshold
	ERStamped        uint64 // backward RM cells whose ER ERICA reduced
}

// swEntry is an input port's entry for one arriving VC: where its cells go
// and the policer that checks them first. SetRoute and SetPolicer fill it,
// and either half may be missing: a policed VC with no route is policed,
// then counted as no_route.
type swEntry struct {
	vc     atm.VC
	dests  []swDest
	pol    *tm.Policer
	polVCs *metrics.VCStats // the policed VC's row, resolved at SetPolicer
	// rev is this port's output-side record for the same VC, where ERICA
	// keeps the CCR that a backward RM cell arriving here is stamped from.
	rev *vcRecord
}

type swDest struct {
	outPort int
	outVC   atm.VC
	class   tm.ServiceClass
	rec     *vcRecord // the output port's record for outVC
}

// vcRecord is an output port's state for one departing VC, shared by every
// route onto that (port, VC): AAL5 frame-discard progress, and ERICA's
// per-VC measurements.
type vcRecord struct {
	inFrame bool
	drop    bool // discarding the rest of this frame
	ppd     bool // drop began mid-frame: forward the final EOF cell

	// ccr is the last CCR the VC declared in a forward RM cell, persistent
	// across ERICA intervals (TM 4.0 lets the switch remember it); activeIn
	// is the interval in which the VC last counted as active.
	ccr      float64
	activeIn uint64
}

type swPort struct {
	// queue holds one ring per service class, drained in strict priority
	// (CBR, rt-VBR, ABR, UBR), sharing one buffer budget that enqueue
	// enforces. It keeps the port's occupancy gauge, residency histogram
	// and flight-recorder span.
	queue    *fifo.Queue
	out      atm.CellConsumer
	cellTime sim.Duration
	draining bool
	drainFn  func() // bound drain callback, created once

	clpThreshold  int // 0 = disabled
	epdThreshold  int // 0 = frame discard (EPD/PPD) disabled
	efciThreshold int // 0 = EFCI marking disabled

	// erica is the explicit-rate state for this port as an output (nil
	// until EnableERICA).
	erica *ericaPort

	// inVCs translates arriving VCs to their entries, the per-cell lookup;
	// recs holds the departing VCs' records, which SetRoute resolves.
	inVCs   vclookup.Table
	entries []swEntry
	recs    map[atm.VC]*vcRecord

	mRouted  *metrics.Counter
	mDropped *metrics.Counter
}

// NewSwitch builds a switch with nPorts ports whose output links run at the
// given payload rate, queueDepth cells of output buffering each. Every cell
// the switch discards is recycled into pool, the kernel's cell pool, and
// broadcast replicas and AIS cells are drawn from it.
//
// The switch counts into reg under its name: per-port "<name>.portN.routed"
// and ".dropped" counters, an ".occupancy" gauge (whose watermark is the
// buffer the port actually needed) and a ".residency" histogram, plus
// switch-level counters for each discard mechanism. Per-VC policing and
// discard actions are recorded into the registry's VCStats rows under the
// policed_clp_tag / policed_discard / epd / ppd / switch_queue_overflow /
// clp_threshold causes. A nil reg gives the switch a private registry.
func NewSwitch(k *sim.Kernel, name string, nPorts int, rate units.BitRate, queueDepth int, pool *atm.Pool, reg *metrics.Registry) *Switch {
	if nPorts <= 0 || queueDepth <= 0 {
		panic("netsim: invalid switch geometry")
	}
	if pool == nil {
		panic("netsim: nil cell pool")
	}
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &Switch{
		k:        k,
		pool:     pool,
		name:     name,
		portDown: make([]bool, nPorts),
		reg:      reg,
		mTag:     reg.Counter(name + ".policed_clp_tag"),
		mPolDrp:  reg.Counter(name + ".policed_discard"),
		mEPD:     reg.Counter(name + ".epd_cells"),
		mPPD:     reg.Counter(name + ".ppd_cells"),
		mCLP:     reg.Counter(name + ".clp_dropped"),
		mNoRt:    reg.Counter(name + ".no_route"),
		mBcast:   reg.Counter(name + ".broadcasts"),
		mAIS:     reg.Counter(name + ".ais_cells"),
		mEFCI:    reg.Counter(name + ".efci_marked"),
		mER:      reg.Counter(name + ".er_stamped"),
	}
	s.aisTickFn = s.aisTick
	ct := units.CellTime(rate)
	for i := 0; i < nPorts; i++ {
		i := i
		pn := fmt.Sprintf("%s.port%d", name, i)
		p := &swPort{
			queue:    fifo.NewQueue(k, int(tm.NumClasses), queueDepth, pool, reg, metrics.DropSwitchQueue),
			cellTime: ct,
			recs:     make(map[atm.VC]*vcRecord),
			mRouted:  reg.Counter(pn + ".routed"),
			mDropped: reg.Counter(pn + ".dropped"),
		}
		p.queue.Occupancy = reg.Gauge(pn + ".occupancy")
		p.queue.Residency = reg.Histogram(pn + ".residency")
		p.drainFn = func() { s.drain(i) }
		s.ports = append(s.ports, p)
		s.conduits = append(s.conduits, &SwitchPort{s: s, idx: i})
	}
	return s
}

// SetPortRate overrides one output port's drain rate — a switch bridging a
// 622 Mb/s backbone to 155 Mb/s edges is the canonical rate-mismatch
// congestion point of the era's topologies.
func (s *Switch) SetPortRate(port int, rate units.BitRate) {
	s.port(port).cellTime = units.CellTime(rate)
}

// SetThresholds arms congestion controls on an output port, all in cells
// of total port occupancy: arriving CLP=1 cells are dropped at or above
// clp, new AAL5 frames arriving at or above epd are refused whole (EPD)
// with mid-frame losses truncating the remainder (PPD), and user cells
// committed to the queue at or above efci leave with the EFCI congestion
// bit set in their PT (AAU preserved) — the binary feedback the ABR
// destination folds into backward RM cells as CI. Zero disables a
// threshold; all default to zero (blind tail drop).
func (s *Switch) SetThresholds(port, clp, epd, efci int) {
	p := s.port(port)
	p.clpThreshold = clp
	p.epdThreshold = epd
	p.efciThreshold = efci
}

// SetPolicer installs a UPC policer on an input port's VC: every arriving
// cell on that (port, VC) runs the GCRA conformance test before routing.
func (s *Switch) SetPolicer(inPort int, vc atm.VC, pol *tm.Policer) {
	ent := s.port(inPort).entry(vc)
	ent.pol = pol
	ent.polVCs = s.reg.VC(vc.VPI, vc.VCI)
}

// entry returns the port's input entry for vc, adding an empty one.
func (p *swPort) entry(vc atm.VC) *swEntry {
	i, ok := p.inVCs.Get(vc)
	if !ok {
		i = int32(len(p.entries))
		p.entries = append(p.entries, swEntry{vc: vc})
		p.inVCs.Put(vc, i)
	}
	return &p.entries[i]
}

// record returns the port's output record for vc, making it on first use.
func (p *swPort) record(vc atm.VC) *vcRecord {
	r := p.recs[vc]
	if r == nil {
		r = &vcRecord{}
		p.recs[vc] = r
	}
	return r
}

// Stats returns the switch counters, read from its registry instruments.
func (s *Switch) Stats() SwitchStats {
	st := SwitchStats{
		NoRoute:          s.mNoRt.Value(),
		Broadcasts:       s.mBcast.Value(),
		PolicedTagged:    s.mTag.Value(),
		PolicedDiscarded: s.mPolDrp.Value(),
		CLPDropped:       s.mCLP.Value(),
		EPDFrames:        s.epdFrames,
		EPDCells:         s.mEPD.Value(),
		PPDFrames:        s.ppdFrames,
		PPDCells:         s.mPPD.Value(),
		AISCells:         s.mAIS.Value(),
		EFCIMarked:       s.mEFCI.Value(),
		ERStamped:        s.mER.Value(),
	}
	for _, p := range s.ports {
		st.Routed += p.mRouted.Value()
		st.Dropped += p.mDropped.Value()
	}
	return st
}

func (s *Switch) port(i int) *swPort {
	if i < 0 || i >= len(s.ports) {
		panic(fmt.Sprintf("netsim: port %d out of range", i))
	}
	return s.ports[i]
}

// SwitchPort is the conduit view of one switch port: cells delivered into
// it enter the fabric on that input port, and AttachSink connects the
// port's output side downstream. It implements atm.CellConduit, so ports
// wire to links, interfaces and stations exactly like any other stage.
type SwitchPort struct {
	s   *Switch
	idx int
}

// DeliverCell implements atm.CellConsumer: the cell arrives on this input
// port and is policed, routed and queued.
func (p *SwitchPort) DeliverCell(c *atm.Cell) { p.s.receive(p.idx, c) }

// AttachSink implements atm.CellProducer: cells drained from this output
// port are delivered to out at the port's cell rate.
func (p *SwitchPort) AttachSink(out atm.CellConsumer) {
	if out == nil {
		panic("netsim: nil port sink")
	}
	p.s.port(p.idx).out = out
}

// Port returns the conduit for port i. The same object is returned on every
// call, so it is cheap to pass around as a wiring handle.
func (s *Switch) Port(i int) *SwitchPort {
	s.port(i) // range-check
	return s.conduits[i]
}

// SignalChange implements phy.SignalConsumer for the input side of this
// port: the upstream fiber reports loss (or return) of signal. While down,
// the switch inserts AIS downstream on every route this port feeds.
func (p *SwitchPort) SignalChange(up bool) { p.s.portSignal(p.idx, up) }

func (s *Switch) portSignal(port int, up bool) {
	s.port(port)
	if s.portDown[port] == !up {
		return
	}
	s.portDown[port] = !up
	if up || s.AISPeriod <= 0 || s.aisTicking {
		return
	}
	// First AIS batch goes out immediately — detection latency downstream
	// is the propagation and queueing delay, not a full period.
	s.aisTicking = true
	s.aisTick()
}

// aisTick inserts one AIS cell per affected route and re-arms itself every
// AISPeriod until every input port has its signal back. Routes are visited
// in (input port, VPI, VCI) order so generation is deterministic.
func (s *Switch) aisTick() {
	anyDown := false
	for _, d := range s.portDown {
		if d {
			anyDown = true
			break
		}
	}
	if !anyDown {
		s.aisTicking = false
		return
	}
	loc := oam.LocationID(s.name)
	var routed []*swEntry
	for port, p := range s.ports {
		if !s.portDown[port] {
			continue
		}
		routed = routed[:0]
		for i := range p.entries {
			if len(p.entries[i].dests) > 0 {
				routed = append(routed, &p.entries[i])
			}
		}
		slices.SortFunc(routed, func(a, b *swEntry) int {
			if a.vc.VPI != b.vc.VPI {
				return int(a.vc.VPI) - int(b.vc.VPI)
			}
			return int(a.vc.VCI) - int(b.vc.VCI)
		})
		for _, ent := range routed {
			for _, d := range ent.dests {
				s.mAIS.Inc()
				c := s.pool.Get()
				*c = *oam.NewAIS(d.outVC, loc)
				s.deferEnqueue(d, c)
			}
		}
	}
	s.k.PostAfter(s.AISPeriod, s.aisTickFn)
}

// RouteOptions refines SetRoute.
type RouteOptions struct {
	// Class selects the output priority queue (zero value: UBR,
	// best-effort).
	Class tm.ServiceClass
	// Append adds the destination to any existing route for (inPort, inVC)
	// instead of replacing it, building a point-to-multipoint — broadcast —
	// route: each arriving cell is replicated to every destination.
	Append bool
}

// SetRoute installs a unidirectional route: cells arriving on inPort with
// header VC inVC leave on outPort carrying outVC. The previous route for
// (inPort, inVC), if any, is replaced unless opts.Append is set. This is
// the one routing entry point (it subsumes the former Route / RouteClass /
// AddRoute trio).
//
// The destination's output record, and the input port's own output-side
// record for inVC (the reverse direction's, which ERICA stamps backward RM
// cells from), are resolved here, so no per-cell step looks them up. A
// policer on (inPort, inVC) stays in place.
func (s *Switch) SetRoute(inPort int, inVC atm.VC, outPort int, outVC atm.VC, opts RouteOptions) {
	in := s.port(inPort)
	out := s.port(outPort)
	ent := in.entry(inVC)
	if !opts.Append {
		ent.dests = nil
	}
	ent.dests = append(ent.dests, swDest{outPort: outPort, outVC: outVC, class: opts.Class, rec: out.record(outVC)})
	ent.rev = in.record(inVC)
}

// SetRecorder attaches flight-recorder spans to every output queue: stage
// "portN.queue" under the switch's name covers commit-to-queue through
// drain onto the output link. Span VCs are output-side (post-rewrite).
func (s *Switch) SetRecorder(rec *trace.Recorder) {
	for i, p := range s.ports {
		p.queue.Stage = rec.Stage(s.name, fmt.Sprintf("port%d.queue", i))
	}
}

func (s *Switch) receive(port int, c *atm.Cell) {
	p := s.ports[port]
	i, ok := p.inVCs.Get(c.Header.VC())
	if !ok {
		s.mNoRt.Inc()
		s.pool.Put(c)
		return
	}
	ent := &p.entries[i]
	if ent.pol != nil {
		switch ent.pol.Police(s.k.Now(), c.Header.CLP) {
		case tm.Discard:
			s.mPolDrp.Inc()
			ent.polVCs.Drop(metrics.DropPolicedDiscard)
			s.pool.Put(c)
			return
		case tm.TagCLP:
			c.Header.CLP = true
			s.mTag.Inc()
			ent.polVCs.Drop(metrics.DropPolicedTag)
		}
	}
	if len(ent.dests) == 0 {
		s.mNoRt.Inc()
		s.pool.Put(c)
		return
	}
	if c.Header.PT == atm.PTResourceMgmt {
		// Backward RM cells arrive on the port whose output side their
		// connection's forward cells congest; stamp ERICA's explicit rate
		// before the fabric carries them on toward the source.
		s.rmReceive(p, ent.rev, c)
	}
	if len(ent.dests) > 1 {
		s.mBcast.Inc()
	}
	for i, d := range ent.dests {
		out := c
		if i > 0 {
			out = s.pool.Get() // replication: the fabric copies the cell per leaf
			*out = *c
		}
		out.Header.VPI, out.Header.VCI = d.outVC.VPI, d.outVC.VCI
		s.deferEnqueue(d, out)
	}
}

// swDefer is one cell in fabric transit: a pooled record whose bound fire
// method replaces a per-cell closure.
type swDefer struct {
	s    *Switch
	dest swDest
	cell *atm.Cell
	fn   func()
	next *swDefer
}

// deferEnqueue schedules enqueue(dest, c) as the fabric transit: one +0 ns
// event. It exists to keep the same-instant event order the E16 and E19
// goldens pin, because an inline enqueue would run ahead of a drain or
// arrival due at the same instant. ROADMAP item 11 replaces it by settling
// the transit under the key this event would have had.
func (s *Switch) deferEnqueue(dest swDest, c *atm.Cell) {
	r := s.freeDefer
	if r == nil {
		r = &swDefer{s: s}
		r.fn = r.fire
	} else {
		s.freeDefer = r.next
		r.next = nil
	}
	r.dest, r.cell = dest, c
	s.k.PostAfter(0, r.fn)
}

func (r *swDefer) fire() {
	dest, cell := r.dest, r.cell
	r.cell = nil
	r.next = r.s.freeDefer
	r.s.freeDefer = r
	r.s.enqueue(dest, cell)
}

func (s *Switch) enqueue(d swDest, c *atm.Cell) {
	p := s.ports[d.outPort]
	q := p.queue
	if p.erica != nil {
		// ERICA measures offered load — before any drop decision — so the
		// overload factor sees the demand the queue is refusing.
		p.erica.observe(s.k.Now(), d.class, d.rec, c)
	}
	frameDiscard := p.epdThreshold > 0 && c.Header.PT.User()
	var fs *vcRecord
	eof := c.Header.PT.EndOfFrame()
	if frameDiscard {
		fs = d.rec
		if !fs.inFrame {
			// Frame boundary: the EPD decision is made here, before any
			// cell of the frame is committed to the queue.
			fs.inFrame = true
			fs.ppd = false
			fs.drop = q.Len() >= p.epdThreshold
			if fs.drop {
				s.epdFrames++
			}
		}
		if fs.drop && !(fs.ppd && eof) {
			// Discarding this frame. EPD drops everything including the
			// EOF (no cell of the frame was forwarded, so the previous
			// frame's EOF still delineates). PPD falls through on the
			// EOF cell to keep the reassembler's framing intact.
			if fs.ppd {
				s.mPPD.Inc()
				q.Drop(c, metrics.DropPPD)
			} else {
				s.mEPD.Inc()
				q.Drop(c, metrics.DropEPD)
			}
			if eof {
				fs.inFrame = false
			}
			return
		}
	}

	dropped := false
	if c.Header.CLP && p.clpThreshold > 0 && q.Len() >= p.clpThreshold {
		s.mCLP.Inc()
		q.Drop(c, metrics.DropCLPThreshold)
		dropped = true
	} else if q.Full() { // the classes' shared buffer is spent
		p.mDropped.Inc()
		q.Drop(c, metrics.DropSwitchQueue)
		dropped = true
	}
	if dropped {
		if fs != nil {
			if eof {
				fs.inFrame = false
			} else {
				// Mid-frame loss: the rest of the frame is useless to
				// AAL5 — switch to PPD for its remaining cells.
				fs.drop = true
				fs.ppd = true
				s.ppdFrames++
			}
		}
		return
	}

	if p.efciThreshold > 0 && q.Len() >= p.efciThreshold && c.Header.PT.User() {
		// Congestion experienced: set EFCI in the PT, preserving the AAU
		// (end-of-frame) bit — 0b001 becomes 0b011, not a new frame shape.
		c.Header.PT |= atm.PTUserCongested
		s.mEFCI.Inc()
	}
	q.Admit(c, int(d.class)) // room is certain: the shared budget is not spent
	p.mRouted.Inc()
	if fs != nil && eof {
		fs.inFrame = false
	}
	if !p.draining {
		p.draining = true
		s.k.PostAfter(p.cellTime, p.drainFn)
	}
}

func (s *Switch) drain(port int) {
	p := s.ports[port]
	cell, ok := p.queue.Leave()
	if !ok {
		p.draining = false
		return
	}
	if p.out != nil {
		p.out.DeliverCell(cell)
	} else {
		s.pool.Put(cell)
	}
	if p.queue.Empty() {
		p.draining = false
		return
	}
	s.k.PostAfter(p.cellTime, p.drainFn)
}
