package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// perfettoEvent is one Chrome trace-event JSON record. The format is the
// lingua franca of timeline viewers: Perfetto and chrome://tracing both load
// it directly. Timestamps and durations are microseconds (float, so the
// nanosecond simulation clock survives); pid groups a node's tracks, tid is
// one stage's track within it.
type perfettoEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   *float64       `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Cat   string         `json:"cat,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type perfettoFile struct {
	TraceEvents     []perfettoEvent `json:"traceEvents"`
	DisplayTimeUnit string          `json:"displayTimeUnit"`
}

// WriteTraceJSON exports the recorded journey as Chrome trace-event JSON:
// one process per node, one thread track per stage, an "X" complete event
// per residency span, and instant events for drops and points. Output is deterministic: pids follow stage-registration order and
// events are sorted by (start, stage, vc).
func (r *Recorder) WriteTraceJSON(w io.Writer) error {
	nodes := r.nodeOrder()
	pidOf := make(map[string]int, len(nodes))
	for i, n := range nodes {
		pidOf[n] = i + 1
	}

	var evs []perfettoEvent
	// Metadata first: name every process (node) and thread (stage track).
	for _, n := range nodes {
		evs = append(evs, perfettoEvent{
			Name: "process_name", Phase: "M", Pid: pidOf[n],
			Args: map[string]any{"name": n},
		})
	}
	for id, m := range r.stages {
		evs = append(evs, perfettoEvent{
			Name: "thread_name", Phase: "M", Pid: pidOf[m.Node], Tid: id + 1,
			Args: map[string]any{"name": m.Stage},
		})
	}

	spans := r.Spans()
	sortSpansByStart(spans)
	for _, sp := range spans {
		m := r.stages[sp.Stage]
		dur := float64(sp.End-sp.Start) / 1000
		evs = append(evs, perfettoEvent{
			Name: m.Stage, Phase: "X", Cat: "cell",
			Ts: float64(sp.Start) / 1000, Dur: &dur,
			Pid: pidOf[m.Node], Tid: int(sp.Stage) + 1,
			Args: map[string]any{"vc": sp.VC.String()},
		})
	}
	for _, ev := range r.Events() {
		m := r.stages[ev.Stage]
		switch ev.Kind {
		case KindDrop:
			evs = append(evs, perfettoEvent{
				Name: "drop: " + ev.Cause.String(), Phase: "i", Cat: "drop",
				Ts: float64(ev.At) / 1000, Scope: "t",
				Pid: pidOf[m.Node], Tid: int(ev.Stage) + 1,
				Args: map[string]any{"vc": ev.VC.String()},
			})
		case KindPoint:
			evs = append(evs, perfettoEvent{
				Name: m.Stage, Phase: "i", Cat: "cell",
				Ts: float64(ev.At) / 1000, Scope: "t",
				Pid: pidOf[m.Node], Tid: int(ev.Stage) + 1,
				Args: map[string]any{"vc": ev.VC.String()},
			})
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(perfettoFile{TraceEvents: evs, DisplayTimeUnit: "ns"})
}

// WriteBreakdown renders the residency report as an aligned text table:
// per-stage span counts, drops and latency statistics — where the time goes,
// stage by stage.
func (r *Recorder) WriteBreakdown(w io.Writer) error {
	stats := r.Residency()
	if _, err := fmt.Fprintf(w, "%-28s %8s %6s %12s %12s %12s %12s\n",
		"stage", "spans", "drops", "mean", "p50", "p99", "max"); err != nil {
		return err
	}
	for _, st := range stats {
		if st.Count == 0 && st.Drops == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "%-28s %8d %6d %12v %12v %12v %12v\n",
			st.Node+"/"+st.Stage, st.Count, st.Drops, st.Mean, st.P50, st.P99, st.Max); err != nil {
			return err
		}
	}
	if r.Evicted() > 0 {
		if _, err := fmt.Fprintf(w, "ring wrapped: %d older events evicted\n", r.Evicted()); err != nil {
			return err
		}
	}
	return nil
}
