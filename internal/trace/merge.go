package trace

import (
	"cmp"
	"slices"

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
	Start sim.Time // a span's start (KindSpan only)
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
		out[i] = NamedEvent{At: ev.At, Start: ev.Start, Node: m.Node, Stage: m.Stage,
			Kind: ev.Kind, VC: ev.VC, Cause: ev.Cause}
	}
	return out
}

// SortNamed orders events by every field — (at, node, stage, vc, kind,
// cause, start) — making the slice a canonical form of its multiset: two runs
// recorded the same trace if and only if their sorted named events are
// equal. This is the comparison the parallel-vs-serial golden tests pin.
func SortNamed(evs []NamedEvent) {
	slices.SortFunc(evs, func(a, b NamedEvent) int {
		return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.Node, b.Node), cmp.Compare(a.Stage, b.Stage),
			cmp.Compare(a.VC.VPI, b.VC.VPI), cmp.Compare(a.VC.VCI, b.VC.VCI), cmp.Compare(a.Kind, b.Kind),
			cmp.Compare(a.Cause, b.Cause), cmp.Compare(a.Start, b.Start))
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
