package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/nic"
	"repro/internal/phy"
)

// layer names one boundary the traced run times from outside the program:
// a shim on a CellPort, or one of the bench's own calls into the stack.
type layer int

const (
	layerNICSend          layer = iota // Endpoint.Send, called by a bench source
	layerNICRxDoor                     // fiber → interface receive door
	layerPhySend                       // endpoint or switch port → cell fiber
	layerNetsimPortIn                  // fiber → switch input port
	layerSonetlinkEnqueue              // endpoint → SONET framer queue
	numReported                        // the layers above are per-layer metrics
	// layerRxCallback is the bench's receive callback (its checks). It is
	// timed only so that its cost comes out of nic.rx_door's self time.
	layerRxCallback = numReported
	numLayers       = numReported + 1
)

var layerNames = [numLayers]string{
	"nic.send", "nic.rx_door", "phy.send", "netsim.port_in", "sonetlink.enqueue", "bench.rx_callback",
}

// spanAgg accumulates one layer's calls and self time across reps.
type spanAgg struct {
	calls uint64
	self  int64 // ns
}

type spanEvent struct {
	l          layer
	start, dur int64 // ns since the tracer's base
}

// Tracer times nested spans on the one goroutine that drives a serial
// kernel. A span's self time is its duration minus the spans nested inside
// it, so a cell that crosses a switch port synchronously into the next
// fiber charges each layer only for its own work.
type Tracer struct {
	base   time.Time
	open   []int64 // per open span: ns covered by its children so far
	agg    [numLayers]spanAgg
	events []spanEvent // kept up to cap(events), then dropped
}

func newTracer(maxEvents int) *Tracer {
	return &Tracer{base: time.Now(), events: make([]spanEvent, 0, maxEvents)}
}

func (t *Tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *Tracer) enter() int64 {
	t.open = append(t.open, 0)
	return t.now()
}

func (t *Tracer) exit(l layer, start int64) {
	dur := t.now() - start
	n := len(t.open) - 1
	child := t.open[n]
	t.open = t.open[:n]
	if n > 0 {
		t.open[n-1] += dur
	}
	a := &t.agg[l]
	a.calls++
	a.self += dur - child
	if len(t.events) < cap(t.events) {
		t.events = append(t.events, spanEvent{l: l, start: start, dur: dur})
	}
}

// stopRecording keeps the spans gathered so far and aggregates the rest.
func (t *Tracer) stopRecording() { t.events = t.events[:len(t.events):len(t.events)] }

// shim times the downstream DeliverCell of one CellPort boundary. It only
// forwards, so it perturbs no simulated statistic.
type shim struct {
	t    *Tracer
	l    layer
	next atm.CellConsumer
}

func (s *shim) DeliverCell(c *atm.Cell) {
	start := s.t.enter()
	s.next.DeliverCell(c)
	s.t.exit(s.l, start)
}

// attachShims re-attaches every boundary of the rig's topology through the
// public AttachSink/Sink calls, wrapping each with a timing shim, and hands
// the tracer to the bench's own sources and receive callbacks.
func (r *rig) attachShims(t *Tracer) error {
	wrap := func(l layer, next atm.CellConsumer) atm.CellConsumer { return &shim{t: t, l: l, next: next} }
	for _, ls := range r.links {
		l := r.net.Link(ls.Name)
		if l.Framed != nil {
			r.net.Endpoint(ls.A.Node).Interface().AttachSink(wrap(layerSonetlinkEnqueue, l.Framed.AtoB))
			r.net.Endpoint(ls.B.Node).Interface().AttachSink(wrap(layerSonetlinkEnqueue, l.Framed.BtoA))
			continue
		}
		for _, end := range []struct {
			from core.NodeRef
			half *phy.CellLink
		}{{ls.A, l.Fwd}, {ls.B, l.Rev}} {
			r.producer(end.from).AttachSink(wrap(layerPhySend, end.half))
			var in layer
			switch end.half.Sink().(type) {
			case *nic.Interface:
				in = layerNICRxDoor
			case *netsim.SwitchPort:
				in = layerNetsimPortIn
			default:
				return fmt.Errorf("link %q: unexpected receiver %T", ls.Name, end.half.Sink())
			}
			end.half.AttachSink(wrap(in, end.half.Sink()))
		}
	}
	for _, s := range r.sources {
		s.tr = t
	}
	for _, rx := range r.receivers {
		rx.tr = t
	}
	return nil
}

func (r *rig) producer(ref core.NodeRef) atm.CellProducer {
	if r.isSwitch[ref.Node] {
		return r.net.Switch(ref.Node).Port(ref.Port)
	}
	return r.net.Endpoint(ref.Node).Interface()
}

// WriteChromeTrace exports the recorded spans as Chrome trace-event JSON:
// metadata (M) events naming the process and thread, and one complete (X)
// event per span, timestamps in µs of wall time.
func (t *Tracer) WriteChromeTrace(w io.Writer, workload string) error {
	type event struct {
		Name  string         `json:"name"`
		Phase string         `json:"ph"`
		Ts    *float64       `json:"ts,omitempty"`
		Dur   *float64       `json:"dur,omitempty"`
		Pid   int            `json:"pid"`
		Tid   int            `json:"tid"`
		Cat   string         `json:"cat,omitempty"`
		Args  map[string]any `json:"args,omitempty"`
	}
	evs := []event{
		{Name: "process_name", Phase: "M", Pid: 1, Tid: 1, Args: map[string]any{"name": "atmperf " + workload}},
		{Name: "thread_name", Phase: "M", Pid: 1, Tid: 1, Args: map[string]any{"name": "serial kernel"}},
	}
	for _, e := range t.events {
		ts, dur := float64(e.start)/1e3, float64(e.dur)/1e3
		evs = append(evs, event{Name: layerNames[e.l], Phase: "X", Ts: &ts, Dur: &dur, Pid: 1, Tid: 1, Cat: "shim"})
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{evs, "ns"})
}
