package trace

import (
	"cmp"
	"slices"

	"repro/internal/atm"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Kind classifies one recorded event.
type Kind uint8

const (
	// KindSpan is one cell's whole residency in a stage, recorded when the
	// cell leaves it: Event.Start is when it entered, Event.At when it left.
	KindSpan Kind = iota
	// KindPoint is an instantaneous boundary crossing (host delivery).
	KindPoint
	// KindDrop is a cell lost inside the stage, with its cause.
	KindDrop
)

func (k Kind) String() string {
	switch k {
	case KindSpan:
		return "span"
	case KindPoint:
		return "point"
	case KindDrop:
		return "drop"
	}
	return "?"
}

// StageID indexes the recorder's stage table.
type StageID uint16

// Event is one entry in the flight recorder's ring: which stage, what
// happened, when, and to which connection's cell. Events are compact value
// records — the cell itself is long gone by the time anyone reads them.
type Event struct {
	At    sim.Time // when it was recorded: a span's end
	Start sim.Time // a span's start (KindSpan only)
	VC    atm.VC
	Stage StageID
	Kind  Kind
	Cause metrics.DropCause // valid when Kind == KindDrop
}

type stageMeta struct {
	Node  string // the owning node ("a", "sw.port1", "link.ab")
	Stage string // the stage within it ("tx.fifo", "wire", "queue")
}

// Recorder is the cell-journey flight recorder: a fixed-size ring of span
// events fed by StageSpan handles installed at every CellPort hop. The ring
// keeps the LAST Capacity events (a flight recorder remembers the crash, not
// the takeoff); Evicted counts what wraparound overwrote.
//
// The discipline mirrors internal/metrics instruments: a nil *Recorder hands
// out nil *StageSpan handles, and every StageSpan method is a no-op on a nil
// receiver — so a datapath wired for tracing but running without a recorder
// pays one pointer test per hop and allocates nothing.
//
// A Recorder belongs to one kernel's world and is not goroutine-safe;
// parallel sweeps give each world its own recorder, like registries.
type Recorder struct {
	k       *sim.Kernel
	ring    []Event
	next    int
	wrapped bool
	evicted uint64
	enabled bool

	sampleN uint32      // record every Nth span or point per (stage, VC); 0/1 = all
	stages  []stageMeta // indexed by StageID
	byName  map[string]*StageSpan
}

// NewRecorder builds a recorder on kernel k holding the last capacity
// events. It starts enabled; Enable(false) freezes it without detaching the
// installed spans.
func NewRecorder(k *sim.Kernel, capacity int) *Recorder {
	if capacity < 0 {
		capacity = 0
	}
	return &Recorder{
		k:       k,
		ring:    make([]Event, capacity),
		enabled: true,
		byName:  make(map[string]*StageSpan),
	}
}

// Enable turns recording on or off. Installed spans stay wired; while
// disabled they cost one branch per hop and record nothing. Its users are
// the disabled-tracing pins in trace_overhead_test.go, which attach a
// recorder and switch it off to price the hooks alone.
func (r *Recorder) Enable(on bool) { r.enabled = on }

// SampleCells keeps only every nth span (or point) per (stage, VC), counted
// as cells leave the stage; each kept span is whole, so sampling thins the
// stream without skewing a duration. n <= 1 records everything. Drops are
// always recorded: sampling thins the healthy stream, never the losses.
func (r *Recorder) SampleCells(n int) {
	if r == nil {
		return
	}
	if n < 1 {
		n = 1
	}
	r.sampleN = uint32(n)
}

// Stage registers (or returns the existing) span handle for one stage of
// one node. The handle is what datapath code calls per cell; registration
// order defines StageID order, so builders that register in spec order get
// deterministic exports. A nil recorder returns a nil handle, which is the
// zero-cost disabled form.
func (r *Recorder) Stage(node, stage string) *StageSpan {
	if r == nil {
		return nil
	}
	key := node + "\x00" + stage
	if s, ok := r.byName[key]; ok {
		return s
	}
	s := &StageSpan{r: r, id: StageID(len(r.stages))}
	r.stages = append(r.stages, stageMeta{Node: node, Stage: stage})
	r.byName[key] = s
	return s
}

// StageName returns the (node, stage) pair behind an id.
func (r *Recorder) StageName(id StageID) (node, stage string) {
	m := r.stages[id]
	return m.Node, m.Stage
}

// push appends one event, evicting the oldest when the ring is full.
func (r *Recorder) push(ev Event) {
	if len(r.ring) == 0 {
		return
	}
	if r.next == len(r.ring) {
		r.next = 0
		r.wrapped = true
	}
	if r.wrapped {
		r.evicted++
	}
	r.ring[r.next] = ev
	r.next++
}

// Len reports how many events the ring currently holds.
func (r *Recorder) Len() int {
	if r.wrapped {
		return len(r.ring)
	}
	return r.next
}

// Evicted reports events overwritten by wraparound: non-zero means Events
// is the most recent window, not the whole journey.
func (r *Recorder) Evicted() uint64 { return r.evicted }

// Events returns the recorded events oldest-first.
func (r *Recorder) Events() []Event {
	if !r.wrapped {
		return append([]Event(nil), r.ring[:r.next]...)
	}
	out := make([]Event, 0, len(r.ring))
	out = append(out, r.ring[r.next:]...)
	return append(out, r.ring[:r.next]...)
}

// StageSpan is the per-stage handle the datapath calls: Span when a cell
// leaves the stage, with the time it entered, which the stage already
// holds (a queued cell's Stamp, a fiber's fixed delay, a frame's first
// cell); Drop when the stage loses a cell; Point for instantaneous
// boundaries. All methods are no-ops on a nil receiver and allocation-free
// on the recording path.
type StageSpan struct {
	r  *Recorder
	id StageID

	// Per-VC cell counts for SampleCells; made on first use while sampling
	// is on, so the default path never touches a map.
	seen map[atm.VC]uint32
}

// Span records a cell of vc leaving the stage now, having entered it at
// start: its whole residency, in one event.
func (s *StageSpan) Span(vc atm.VC, start sim.Time) {
	if s != nil && s.r.enabled {
		s.record(Event{Start: start, VC: vc, Kind: KindSpan})
	}
}

// Point records an instantaneous boundary crossing.
func (s *StageSpan) Point(vc atm.VC) {
	if s != nil && s.r.enabled {
		s.record(Event{VC: vc, Kind: KindPoint})
	}
}

// Drop records a cell the stage lost, with its cause. Drops bypass cell
// sampling: losses are the events a flight recorder exists for.
func (s *StageSpan) Drop(vc atm.VC, cause metrics.DropCause) {
	if s != nil && s.r.enabled {
		s.record(Event{VC: vc, Kind: KindDrop, Cause: cause})
	}
}

// record stamps ev with the stage and the time and appends it, thinning
// spans and points per VC under SampleCells. The methods above keep only
// the recorder test, so that it inlines at every hop.
func (s *StageSpan) record(ev Event) {
	r := s.r
	if r.sampleN > 1 && ev.Kind != KindDrop {
		if s.seen == nil {
			s.seen = make(map[atm.VC]uint32)
		}
		n := s.seen[ev.VC]
		s.seen[ev.VC] = n + 1
		if n%r.sampleN != 0 {
			return
		}
	}
	ev.At, ev.Stage = r.k.Now(), s.id
	r.push(ev)
}

// Span is one cell's residency in a stage.
type Span struct {
	Stage StageID
	VC    atm.VC
	Start sim.Time
	End   sim.Time
}

// Spans returns the recorded spans in the order they were recorded, which
// is end-time order. Each span is whole as its stage recorded it, so
// selecting them needs no matching: a cell lost inside a stage records its
// drop and no span, and an evicted event takes only its own span along.
func (r *Recorder) Spans() []Span {
	var spans []Span
	for _, ev := range r.Events() {
		if ev.Kind == KindSpan {
			spans = append(spans, Span{Stage: ev.Stage, VC: ev.VC, Start: ev.Start, End: ev.At})
		}
	}
	return spans
}

// StageStat is one stage's residency summary for the attribution report.
type StageStat struct {
	Node, Stage string
	Count       int // recorded spans
	Drops       int // recorded drop events
	Mean        sim.Duration
	P50, P99    sim.Duration
	Max         sim.Duration
	Total       sim.Duration // sum of residencies
}

// Residency aggregates the recorded spans into per-stage residency
// statistics, one log-linear histogram per stage (the same buckets the
// metrics registry uses), returned in stage-registration order.
func (r *Recorder) Residency() []StageStat {
	reg := metrics.NewRegistry()
	hists := make([]*metrics.Histogram, len(r.stages))
	stats := make([]StageStat, len(r.stages))
	for id, m := range r.stages {
		stats[id] = StageStat{Node: m.Node, Stage: m.Stage}
		hists[id] = reg.Histogram(m.Node + "." + m.Stage)
	}
	for _, ev := range r.Events() {
		switch ev.Kind {
		case KindSpan:
			d := ev.At - ev.Start
			hists[ev.Stage].Observe(d)
			stats[ev.Stage].Count++
			stats[ev.Stage].Total += d
		case KindDrop:
			stats[ev.Stage].Drops++
		}
	}
	for id := range stats {
		h := hists[id]
		if h.Count() == 0 {
			continue
		}
		stats[id].Mean = h.Mean()
		stats[id].P50 = h.Quantile(0.50)
		stats[id].P99 = h.Quantile(0.99)
		stats[id].Max = h.Max()
	}
	return stats
}

// nodeOrder returns the distinct node names in registration order — the
// deterministic pid assignment the Perfetto export uses.
func (r *Recorder) nodeOrder() []string {
	seen := make(map[string]bool)
	var nodes []string
	for _, m := range r.stages {
		if !seen[m.Node] {
			seen[m.Node] = true
			nodes = append(nodes, m.Node)
		}
	}
	return nodes
}

// sortSpansByStart orders spans by (start, stage, vc, end), every field, so
// the export order does not depend on the sort: cells of one VC pulled into
// a frame together share a start, and only their ends tell them apart.
func sortSpansByStart(spans []Span) {
	slices.SortFunc(spans, func(a, b Span) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.Stage, b.Stage),
			cmp.Compare(a.VC.VPI, b.VC.VPI), cmp.Compare(a.VC.VCI, b.VC.VCI), cmp.Compare(a.End, b.End))
	})
}
