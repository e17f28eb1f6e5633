package trace

import (
	"sort"

	"repro/internal/atm"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Sharded runs give every partition its own Recorder (a recorder belongs to
// one kernel's world), so comparing or exporting a whole-run trace means
// merging rings whose StageIDs come from different tables. NamedEvent is
// the merge currency: the per-recorder StageID is resolved to its
// (node, stage) name, which is globally unique across partitions because
// the builder registers each instance's stages on exactly one recorder.
type NamedEvent struct {
	At    sim.Time
	Node  string
	Stage string
	Kind  Kind
	VC    atm.VC
	Cause metrics.DropCause
}

// Named returns the recorder's events oldest-first, like Events, with stage
// names resolved.
func (r *Recorder) Named() []NamedEvent {
	evs := r.Events()
	out := make([]NamedEvent, len(evs))
	for i, ev := range evs {
		m := r.stages[ev.Stage]
		out[i] = NamedEvent{At: ev.At, Node: m.Node, Stage: m.Stage,
			Kind: ev.Kind, VC: ev.VC, Cause: ev.Cause}
	}
	return out
}

// SortNamed orders events by every field — (at, node, stage, vc, kind,
// cause) — making the slice a canonical form of its multiset: two runs
// recorded the same trace if and only if their sorted named events are
// equal. This is the comparison the parallel-vs-serial golden tests pin.
func SortNamed(evs []NamedEvent) {
	sort.Slice(evs, func(i, j int) bool {
		a, b := &evs[i], &evs[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Stage != b.Stage {
			return a.Stage < b.Stage
		}
		if a.VC.VPI != b.VC.VPI {
			return a.VC.VPI < b.VC.VPI
		}
		if a.VC.VCI != b.VC.VCI {
			return a.VC.VCI < b.VC.VCI
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Cause < b.Cause
	})
}

// MergeNamed concatenates the recorders' events and sorts them into the
// canonical order. Nil recorders are skipped.
func MergeNamed(recs ...*Recorder) []NamedEvent {
	var out []NamedEvent
	for _, r := range recs {
		if r == nil {
			continue
		}
		out = append(out, r.Named()...)
	}
	SortNamed(out)
	return out
}

// NamedSpan is a matched Enter/Exit pair keyed by stage name rather than a
// recorder-local StageID.
type NamedSpan struct {
	Node  string
	Stage string
	VC    atm.VC
	Start sim.Time
	End   sim.Time
}

type namedSpanKey struct {
	node, stage string
	vc          atm.VC
}

// NamedSpans pairs Enter/Exit events per (node, stage, VC) in FIFO order
// over the stream as given, returning completed spans plus the count of
// Exits with no matching Enter. Feed it SortNamed-ordered events: then the
// result is a pure function of the event multiset, so a serial run and a
// merged parallel run that recorded the same events produce identical
// spans — the span half of the golden comparison.
func NamedSpans(evs []NamedEvent) (spans []NamedSpan, unmatched int) {
	open := make(map[namedSpanKey][]sim.Time)
	for _, ev := range evs {
		key := namedSpanKey{ev.Node, ev.Stage, ev.VC}
		switch ev.Kind {
		case KindEnter:
			open[key] = append(open[key], ev.At)
		case KindExit:
			q := open[key]
			if len(q) == 0 {
				unmatched++
				continue
			}
			spans = append(spans, NamedSpan{Node: ev.Node, Stage: ev.Stage,
				VC: ev.VC, Start: q[0], End: ev.At})
			open[key] = q[1:]
		}
	}
	return spans, unmatched
}
