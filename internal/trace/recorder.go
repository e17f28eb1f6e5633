package trace

import (
	"sort"

	"repro/internal/atm"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Kind classifies one recorded span event.
type Kind uint8

const (
	// KindEnter marks a cell entering a stage (pushed into a FIFO, offered
	// to a wire).
	KindEnter Kind = iota
	// KindExit marks the same cell leaving the stage. Enter/Exit pairs
	// match in FIFO order per (stage, VC) — exact on the order-preserving
	// stages this simulator models.
	KindExit
	// KindPoint is an instantaneous boundary crossing (host delivery).
	KindPoint
	// KindDrop is a cell lost inside the stage, with its cause.
	KindDrop
)

func (k Kind) String() string {
	switch k {
	case KindEnter:
		return "enter"
	case KindExit:
		return "exit"
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
	At    sim.Time
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

	sampleN uint32      // record every Nth cell per (stage, VC); 0/1 = all
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
// disabled they cost one branch per hop and record nothing.
func (r *Recorder) Enable(on bool) { r.enabled = on }

// Enabled reports whether events are currently recorded.
func (r *Recorder) Enabled() bool { return r.enabled }

// SampleCells records only every nth cell per (stage, VC) — both ends of a
// span sample by per-VC count, so the kth recorded Enter still matches the
// kth recorded Exit on a FIFO stage. n <= 1 records everything. Drops are
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

// Stages returns the number of registered stages.
func (r *Recorder) Stages() int { return len(r.stages) }

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

// Reset clears the ring and eviction accounting; stage registrations and
// sampling state survive, so a recorder can be reused between runs.
func (r *Recorder) Reset() {
	r.next = 0
	r.wrapped = false
	r.evicted = 0
	for _, s := range r.byName {
		s.in, s.out = nil, nil
	}
}

// StageSpan is the per-stage handle the datapath calls: Enter when a cell
// comes under the stage's control, Exit when it leaves, Drop when the stage
// loses it, Point for instantaneous boundaries. All methods are no-ops on a
// nil receiver and allocation-free on the recording path.
type StageSpan struct {
	r  *Recorder
	id StageID

	// Per-VC cell counters for SampleCells; allocated lazily only when
	// cell sampling is active, so the default path never touches a map.
	in  map[atm.VC]uint32
	out map[atm.VC]uint32
}

// admit applies per-VC cell sampling to the paired kinds.
func (s *StageSpan) admit(vc atm.VC, m *map[atm.VC]uint32) bool {
	r := s.r
	if r.sampleN > 1 {
		if *m == nil {
			*m = make(map[atm.VC]uint32)
		}
		n := (*m)[vc]
		(*m)[vc] = n + 1
		return n%r.sampleN == 0
	}
	return true
}

// Enter records a cell entering the stage.
func (s *StageSpan) Enter(vc atm.VC) {
	if s == nil || !s.r.enabled {
		return
	}
	if !s.admit(vc, &s.in) {
		return
	}
	s.r.push(Event{At: s.r.k.Now(), VC: vc, Stage: s.id, Kind: KindEnter})
}

// Exit records the cell leaving the stage.
func (s *StageSpan) Exit(vc atm.VC) {
	if s == nil || !s.r.enabled {
		return
	}
	if !s.admit(vc, &s.out) {
		return
	}
	s.r.push(Event{At: s.r.k.Now(), VC: vc, Stage: s.id, Kind: KindExit})
}

// Point records an instantaneous boundary crossing.
func (s *StageSpan) Point(vc atm.VC) {
	if s == nil || !s.r.enabled {
		return
	}
	if !s.admit(vc, &s.in) {
		return
	}
	s.r.push(Event{At: s.r.k.Now(), VC: vc, Stage: s.id, Kind: KindPoint})
}

// Drop records a cell the stage lost, with its cause. Drops bypass cell
// sampling: losses are the events a flight recorder exists for.
func (s *StageSpan) Drop(vc atm.VC, cause metrics.DropCause) {
	if s == nil || !s.r.enabled {
		return
	}
	s.r.push(Event{At: s.r.k.Now(), VC: vc, Stage: s.id, Kind: KindDrop, Cause: cause})
}

// Span is one matched Enter/Exit pair: a cell's residency in a stage.
type Span struct {
	Stage StageID
	VC    atm.VC
	Start sim.Time
	End   sim.Time
}

type spanKey struct {
	stage StageID
	vc    atm.VC
}

// Spans pairs the ring's Enter/Exit events per (stage, VC) in FIFO order
// and returns the completed residency spans in end-time order, plus the
// count of Exit events whose Enter was missing (evicted by wraparound, or a
// cell lost mid-stage on a lossy wire — the FIFO match then skews, exactly
// as with Timed).
func (r *Recorder) Spans() (spans []Span, unmatched int) {
	open := make(map[spanKey][]sim.Time)
	for _, ev := range r.Events() {
		key := spanKey{ev.Stage, ev.VC}
		switch ev.Kind {
		case KindEnter:
			open[key] = append(open[key], ev.At)
		case KindExit:
			q := open[key]
			if len(q) == 0 {
				unmatched++
				continue
			}
			spans = append(spans, Span{Stage: ev.Stage, VC: ev.VC, Start: q[0], End: ev.At})
			open[key] = q[1:]
		}
	}
	return spans, unmatched
}

// StageStat is one stage's residency summary for the attribution report.
type StageStat struct {
	Node, Stage string
	Count       int // matched spans
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
	spans, _ := r.Spans()
	reg := metrics.NewRegistry()
	hists := make([]*metrics.Histogram, len(r.stages))
	stats := make([]StageStat, len(r.stages))
	for id, m := range r.stages {
		stats[id] = StageStat{Node: m.Node, Stage: m.Stage}
		hists[id] = reg.Histogram(m.Node + "." + m.Stage)
	}
	for _, sp := range spans {
		d := sp.End - sp.Start
		hists[sp.Stage].Observe(d)
		stats[sp.Stage].Count++
		stats[sp.Stage].Total += d
	}
	for _, ev := range r.Events() {
		if ev.Kind == KindDrop {
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

// sortSpansByStart orders spans (start, stage, vc) for deterministic export.
func sortSpansByStart(spans []Span) {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		if spans[i].Stage != spans[j].Stage {
			return spans[i].Stage < spans[j].Stage
		}
		if spans[i].VC.VPI != spans[j].VC.VPI {
			return spans[i].VC.VPI < spans[j].VC.VPI
		}
		if spans[i].VC.VCI != spans[j].VC.VCI {
			return spans[i].VC.VCI < spans[j].VC.VCI
		}
		// Cells of one VC entering a stage in the same event (a frame pull)
		// share a Start; without the End tie-break their export order would
		// be whatever sort.Slice's unstable sort left behind.
		return spans[i].End < spans[j].End
	})
}
