package tcp

import (
	"fmt"

	"repro/internal/atm"
	"repro/internal/ip"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Config tunes one flow. The zero value of any field selects its default.
type Config struct {
	// MSS is the payload bytes per segment (default 1460). NewFlow caps
	// it at the smaller of its two stacks' MTU less the TCP header, the
	// value a handshake's MSS option would agree on.
	MSS int
	// RcvWnd is the receiver's advertised window in bytes (default 64 KiB,
	// capped at MaxWindow).
	RcvWnd int
	// InitialCwnd is the initial congestion window in segments (default 2).
	InitialCwnd int
	// SSThresh is the initial slow-start threshold in bytes (default: the
	// advertised window — slow start runs until the first loss).
	SSThresh int
	// InitialRTO is the pre-measurement retransmission timeout (default
	// 200 ms).
	InitialRTO sim.Duration
	// MinRTO / MaxRTO clamp the computed timeout (defaults 10 ms / 10 s).
	MinRTO, MaxRTO sim.Duration
	// Encap selects the RFC 2684 encapsulation both ends use; it must
	// match the stacks the flow is built on (informational here — the
	// stacks own the actual framing).
	Encap ip.Method
}

func (c Config) withDefaults() Config {
	if c.MSS <= 0 {
		c.MSS = 1460
	}
	if c.RcvWnd <= 0 {
		c.RcvWnd = 64 << 10
	}
	if c.RcvWnd > MaxWindow {
		c.RcvWnd = MaxWindow
	}
	if c.InitialCwnd <= 0 {
		c.InitialCwnd = 2
	}
	if c.SSThresh <= 0 {
		c.SSThresh = c.RcvWnd
	}
	if c.InitialRTO <= 0 {
		c.InitialRTO = 200 * sim.Millisecond
	}
	if c.MinRTO <= 0 {
		c.MinRTO = 10 * sim.Millisecond
	}
	if c.MaxRTO <= 0 {
		c.MaxRTO = 10 * sim.Second
	}
	return c
}

// SenderStats counts the congestion-control events of one flow.
// Retransmits, FastRetransmits and Timeouts are the "tcp.<flow>."
// counters of the same names.
type SenderStats struct {
	Segments        uint64 // first transmissions
	Retransmits     uint64 // all retransmitted segments
	FastRetransmits uint64 // fast-retransmit entries (3 dup ACKs)
	Timeouts        uint64 // RTO expirations
	AcksRx          uint64 // ACK segments processed
	BytesAcked      uint64
}

// iss is the initial send sequence number; flows begin established.
const iss uint32 = 1

// Sender is the transmitting half of a flow: a bulk source with TCP Reno
// congestion control. Segments go out through the IP stack on one VC; ACKs
// for that VC must be routed back to HandleSegment (Flow wires this).
type Sender struct {
	k     *sim.Kernel
	stack *ip.Stack
	vc    atm.VC
	dst   ip.Addr
	cfg   Config

	srcPort, dstPort uint16

	sndUna, sndNxt uint32
	sndMax         uint32 // highest sequence ever sent
	total          uint64 // bytes to send; 0 = unbounded
	cwnd, ssthresh int
	rwnd           int
	dupAcks        int
	inRecovery     bool

	est      RTOEstimator
	timer    *sim.Event // created by the first arm, rescheduled after
	timing   bool
	timedEnd uint32
	timedAt  sim.Time

	// The counts without a registry name; the rest live in the counters.
	stats   SenderStats
	stopped bool
	onDone  func()

	gCwnd, gSsthresh *metrics.Gauge
	cRetx, cTimeout  *metrics.Counter
	cFastRetx        *metrics.Counter
	hRTT             *metrics.Histogram
}

// newSender builds flow name's sender for vc on stack, destined for dst,
// counting into the stack's interface registry under "tcp.<name>.". The VC
// must be open on the stack's interface.
func newSender(k *sim.Kernel, name string, stack *ip.Stack, vc atm.VC, dst ip.Addr,
	srcPort, dstPort uint16, cfg Config) *Sender {
	cfg = cfg.withDefaults()
	reg := stack.Interface().Metrics()
	p := "tcp." + name + "."
	s := &Sender{
		k: k, stack: stack, vc: vc, dst: dst, cfg: cfg,
		srcPort: srcPort, dstPort: dstPort,
		sndUna: iss, sndNxt: iss, sndMax: iss,
		cwnd:      cfg.InitialCwnd * cfg.MSS,
		ssthresh:  cfg.SSThresh,
		rwnd:      cfg.RcvWnd,
		est:       NewRTOEstimator(cfg.InitialRTO, cfg.MinRTO, cfg.MaxRTO),
		gCwnd:     reg.Gauge(p + "cwnd"),
		gSsthresh: reg.Gauge(p + "ssthresh"),
		cRetx:     reg.Counter(p + "retransmits"),
		cTimeout:  reg.Counter(p + "timeouts"),
		cFastRetx: reg.Counter(p + "fast_retransmits"),
		hRTT:      reg.Histogram(p + "rtt_ns"),
	}
	s.gCwnd.Set(int64(s.cwnd))
	s.gSsthresh.Set(int64(s.ssthresh))
	return s
}

// Stats returns the sender's counters.
func (s *Sender) Stats() SenderStats {
	st := s.stats
	st.Retransmits = s.cRetx.Value()
	st.FastRetransmits = s.cFastRetx.Value()
	st.Timeouts = s.cTimeout.Value()
	return st
}

// Cwnd returns the congestion window in bytes.
func (s *Sender) Cwnd() int { return s.cwnd }

// SRTT returns the smoothed round-trip estimate (0 before a sample).
func (s *Sender) SRTT() sim.Duration { return s.est.SRTT() }

// InFlight returns the unacknowledged bytes outstanding.
func (s *Sender) InFlight() int { return int(s.sndNxt - s.sndUna) }

// Done reports whether a bounded transfer has been fully acknowledged.
func (s *Sender) Done() bool {
	return s.total > 0 && uint64(s.sndUna-iss) >= s.total
}

// Start begins transmitting: totalBytes bounds the transfer (0 = unbounded
// — run until Stop). onDone (may be nil) fires when the last byte of a
// bounded transfer is acknowledged.
func (s *Sender) Start(totalBytes uint64, onDone func()) {
	if s.stopped {
		panic("tcp: sender restarted after Stop")
	}
	s.total = totalBytes
	s.onDone = onDone
	s.pump()
}

// Stop quiesces the sender: no further segments or timers. Used at the end
// of a measurement window so the kernel can drain.
func (s *Sender) Stop() {
	s.stopped = true
	s.k.Cancel(s.timer)
}

func (s *Sender) setCwnd(v int) {
	if v < s.cfg.MSS {
		v = s.cfg.MSS
	}
	s.cwnd = v
	s.gCwnd.Set(int64(v))
}

func (s *Sender) setSsthresh(v int) {
	if v < 2*s.cfg.MSS {
		v = 2 * s.cfg.MSS
	}
	s.ssthresh = v
	s.gSsthresh.Set(int64(v))
}

// window is the sender's effective window: min(cwnd, receiver's window).
func (s *Sender) window() int {
	if s.rwnd < s.cwnd {
		return s.rwnd
	}
	return s.cwnd
}

// remaining returns the unsent bytes of a bounded transfer (or a full MSS
// forever when unbounded).
func (s *Sender) remaining() int {
	if s.total == 0 {
		return s.cfg.MSS
	}
	sent := uint64(s.sndNxt - iss)
	if sent >= s.total {
		return 0
	}
	rem := s.total - sent
	if rem > uint64(s.cfg.MSS) {
		return s.cfg.MSS
	}
	return int(rem)
}

// pump emits new segments while the window has room. A segment is sent
// whole (up to MSS) whenever in-flight bytes are below the window — the
// usual fluid simplification, bounding the overshoot to under one MSS.
func (s *Sender) pump() {
	if s.stopped {
		return
	}
	for s.InFlight() < s.window() {
		n := s.remaining()
		if n <= 0 {
			break
		}
		// Below sndMax means re-sending after an RTO go-back.
		retx := seqLT(s.sndNxt, s.sndMax)
		s.emit(s.sndNxt, n, retx)
		s.sndNxt += uint32(n)
		if seqGT(s.sndNxt, s.sndMax) {
			s.sndMax = s.sndNxt
		}
		if !retx {
			s.stats.Segments++
		}
	}
	if s.InFlight() > 0 && !s.timer.Scheduled() {
		s.armTimer()
	}
}

// emit transmits [seq, seq+n) as one segment, written in place into the
// frame the interface sends. Payload bytes are the frame's synthetic zeros;
// only their count and sequencing matter to the model.
func (s *Sender) emit(seq uint32, n int, retransmit bool) {
	seg := Segment{
		SrcPort: s.srcPort, DstPort: s.dstPort,
		Seq: seq, Ack: 0, Flags: FlagACK, Window: s.cfg.RcvWnd,
	}
	sdu, b := s.stack.NewDatagram(HeaderSize + n)
	seg.putHeader(b, s.stack.Addr(), s.dst)
	if err := s.stack.SendDatagram(s.vc, ip.ProtoTCP, s.dst, sdu, nil); err != nil {
		panic(fmt.Sprintf("tcp: send failed: %v", err))
	}
	if retransmit {
		s.cRetx.Inc()
		// Karn: a retransmission makes any in-progress timing ambiguous.
		s.timing = false
	} else if !s.timing {
		s.timing = true
		s.timedEnd = seq + uint32(n)
		s.timedAt = s.k.Now()
	}
}

// armTimer (re)starts the retransmission timer one RTO from now. The
// first arm creates the event, binding s.timeout once; later ones
// reschedule it, which draws a sequence number just as a fresh After
// would, so re-arming allocates nothing and dispatch order is unchanged.
func (s *Sender) armTimer() {
	if s.timer == nil {
		s.timer = s.k.After(s.est.RTO(), s.timeout)
		return
	}
	s.k.Reschedule(s.timer, s.k.Now()+s.est.RTO())
}

// timeout is the RTO expiry: classic Reno collapse to one segment, back
// off, and resend from the left edge.
func (s *Sender) timeout() {
	if s.stopped || s.InFlight() == 0 {
		return
	}
	s.cTimeout.Inc()
	s.setSsthresh(s.InFlight() / 2)
	s.setCwnd(s.cfg.MSS)
	s.inRecovery = false
	s.dupAcks = 0
	s.est.Backoff()
	s.timing = false
	// Everything beyond the left edge will be resent as the window
	// reopens; the receiver's out-of-order buffer absorbs what survived.
	s.sndNxt = s.sndUna
	n := s.remaining()
	if n > 0 {
		s.emit(s.sndNxt, n, true)
		s.sndNxt += uint32(n)
	}
	s.armTimer()
}

// HandleSegment processes one segment arriving on the sender's VC — ACKs
// from the receiver. Flow binds this to the IP stack.
func (s *Sender) HandleSegment(h ip.Header, payload []byte, at sim.Time) {
	if s.stopped {
		return
	}
	seg, err := ParseSegment(h.Src, h.Dst, payload)
	if err != nil || seg.Flags&FlagACK == 0 {
		return
	}
	s.stats.AcksRx++
	s.rwnd = seg.Window
	ack := seg.Ack
	switch {
	case seqGT(ack, s.sndMax):
		return // acks data never sent; ignore
	case seqGT(ack, s.sndUna):
		s.newAck(ack)
	case ack == s.sndUna && len(seg.Payload) == 0 && s.InFlight() > 0:
		s.dupAck()
	}
}

// newAck advances the left edge: RTT sampling, window growth, recovery
// exit, completion.
func (s *Sender) newAck(ack uint32) {
	acked := int(ack - s.sndUna)
	s.sndUna = ack
	if seqGT(ack, s.sndNxt) {
		// After an RTO go-back, a cumulative ACK can cover data the
		// receiver had buffered past the resend point — skip ahead.
		s.sndNxt = ack
	}
	s.stats.BytesAcked += uint64(acked)
	s.dupAcks = 0

	if s.timing && seqGEQ(ack, s.timedEnd) {
		rtt := s.k.Now() - s.timedAt
		s.est.Sample(rtt)
		s.hRTT.Observe(rtt)
		s.timing = false
	}

	if s.inRecovery {
		// Reno: the first advancing ACK ends fast recovery — deflate the
		// inflated window back to ssthresh.
		s.inRecovery = false
		s.setCwnd(s.ssthresh)
	} else if s.cwnd < s.ssthresh {
		// Slow start: one MSS per ACK (doubling per RTT).
		s.setCwnd(s.cwnd + s.cfg.MSS)
	} else {
		// Congestion avoidance: ~one MSS per RTT.
		inc := s.cfg.MSS * s.cfg.MSS / s.cwnd
		if inc < 1 {
			inc = 1
		}
		s.setCwnd(s.cwnd + inc)
	}

	if s.Done() {
		s.k.Cancel(s.timer)
		if s.onDone != nil {
			done := s.onDone
			s.onDone = nil
			done()
		}
		return
	}
	if s.InFlight() > 0 {
		s.armTimer()
	} else {
		s.k.Cancel(s.timer)
	}
	s.pump()
}

// dupAck counts duplicate ACKs: three trigger fast retransmit and fast
// recovery; each further one inflates the window by a segment (the
// departed-cell heuristic that keeps the pipe rolling during recovery).
func (s *Sender) dupAck() {
	s.dupAcks++
	switch {
	case s.dupAcks == 3:
		s.cFastRetx.Inc()
		s.setSsthresh(s.InFlight() / 2)
		n := s.cfg.MSS
		if int(s.sndNxt-s.sndUna) < n {
			n = int(s.sndNxt - s.sndUna)
		}
		s.emit(s.sndUna, n, true)
		s.setCwnd(s.ssthresh + 3*s.cfg.MSS)
		s.inRecovery = true
		s.armTimer()
	case s.dupAcks > 3 && s.inRecovery:
		s.setCwnd(s.cwnd + s.cfg.MSS)
		s.pump()
	}
}
