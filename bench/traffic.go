package bench

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/sim"
)

// stampSize is the (VCC id, sequence number) header every bench SDU starts
// with; the rest of the SDU is seeded pattern bytes.
const stampSize = 8

// patternRot is how many distinct body offsets the pattern cycles through,
// so consecutive SDUs of one VCC carry different bytes and a delivered SDU
// that belongs to another sequence number cannot pass the byte check.
const patternRot = 251

// payload is the seeded content of one VCC's SDUs. The sender and the
// checker share it read-only: the body of SDU seq is
// pat[seq%patternRot:][:size-stampSize].
type payload struct {
	id   uint32
	size int
	pat  []byte
}

func newPayload(seed uint64, id uint32, size int) *payload {
	rng := rand.New(rand.NewPCG(seed, uint64(id)))
	pat := make([]byte, patternRot+size-stampSize)
	for i := range pat {
		pat[i] = byte(rng.Uint32())
	}
	return &payload{id: id, size: size, pat: pat}
}

func (p *payload) body(seq uint32) []byte {
	r := int(seq % patternRot)
	return p.pat[r : r+p.size-stampSize]
}

// loop selects what releases a source's next SDU.
type loop int

const (
	// onTransmit sends from the transmit-complete callback: the sending
	// host paces itself, and the window bounds SDUs queued at the sender.
	onTransmit loop = iota
	// onDelivery sends when the destination receives one of the source's
	// SDUs: an end-to-end window, for loads the receiving host could not
	// absorb (its interrupt backlog would grow for the whole run).
	onDelivery
)

// source is a closed-loop greedy sender: it keeps window SDUs outstanding
// on one VCC until the deadline. Endpoint.Send copies the SDU before it
// returns, so one scratch buffer per source is enough and the steady state
// allocates nothing on the bench side.
type source struct {
	ep       *core.Endpoint
	k        *sim.Kernel
	vc       core.VC
	p        *payload
	window   int
	deadline sim.Time

	buf    []byte
	next   uint32
	sendFn func() // s.send bound once, reused as every release callback
	onSent func() // sendFn under onTransmit, nil under onDelivery
	err    error
	tr     *Tracer // nil unless the run is traced
}

func newSource(ep *core.Endpoint, k *sim.Kernel, vc core.VC, p *payload, window int, deadline sim.Time, l loop) *source {
	s := &source{ep: ep, k: k, vc: vc, p: p, window: window, deadline: deadline,
		buf: make([]byte, p.size)}
	s.sendFn = s.send
	if l == onTransmit {
		s.onSent = s.sendFn
	}
	return s
}

// start launches the window; it runs as a kernel event at the source's
// seeded start offset.
func (s *source) start() {
	for i := 0; i < s.window; i++ {
		s.send()
	}
}

func (s *source) fill(seq uint32) []byte {
	binary.BigEndian.PutUint32(s.buf, s.p.id)
	binary.BigEndian.PutUint32(s.buf[4:], seq)
	copy(s.buf[stampSize:], s.p.body(seq))
	return s.buf
}

func (s *source) send() {
	if s.err != nil || s.k.Now() > s.deadline {
		return
	}
	sdu := s.fill(s.next)
	s.next++
	var err error
	if s.tr != nil {
		t0 := s.tr.enter()
		err = s.ep.Send(s.vc, sdu, s.onSent)
		s.tr.exit(layerNICSend, t0)
	} else {
		err = s.ep.Send(s.vc, sdu, s.onSent)
	}
	if err != nil {
		s.err = fmt.Errorf("vcc %d: send seq %d: %w", s.p.id, s.next-1, err)
	}
}

// checker verifies one VCC's deliveries: every SDU carries this VCC's
// stamp, sequence numbers strictly increase (in order, no duplicates; gaps
// are frames the network dropped), and the bytes are the ones sent.
type checker struct {
	p    *payload
	last int64
	got  uint64
	err  error
	next func() // the source's send under onDelivery, else nil
}

func newChecker(p *payload, next func()) *checker { return &checker{p: p, last: -1, next: next} }

func (c *checker) check(data []byte) {
	if c.err != nil {
		return
	}
	if len(data) != c.p.size {
		c.err = fmt.Errorf("vcc %d: delivered %d bytes, sent %d", c.p.id, len(data), c.p.size)
		return
	}
	id, seq := binary.BigEndian.Uint32(data), binary.BigEndian.Uint32(data[4:])
	switch {
	case id != c.p.id:
		c.err = fmt.Errorf("vcc %d: delivered an SDU stamped for vcc %d", c.p.id, id)
	case int64(seq) <= c.last:
		c.err = fmt.Errorf("vcc %d: seq %d after %d (reordered or duplicated)", c.p.id, seq, c.last)
	case !bytes.Equal(data[stampSize:], c.p.body(seq)):
		c.err = fmt.Errorf("vcc %d: seq %d payload differs from what was sent", c.p.id, seq)
	default:
		c.last = int64(seq)
		c.got++
		if c.next != nil {
			c.next()
		}
	}
}

// receiver demultiplexes one endpoint's deliveries to the checkers of the
// VCCs that terminate there.
type receiver struct {
	byVC map[core.VC]*checker
	tr   *Tracer
	err  error
}

func (r *receiver) deliver(p core.Packet) {
	if r.tr != nil {
		t0 := r.tr.enter()
		r.dispatch(p)
		r.tr.exit(layerRxCallback, t0)
		return
	}
	r.dispatch(p)
}

func (r *receiver) dispatch(p core.Packet) {
	if c := r.byVC[p.VC]; c != nil {
		c.check(p.Data)
	} else if r.err == nil {
		r.err = fmt.Errorf("SDU delivered on %v, which no bench VCC terminates", p.VC)
	}
}
