// Package metrics is the unified telemetry layer for the simulated
// datapath: a registry of named instruments every component reports into,
// replacing the per-package ad-hoc counters the repository grew early on.
//
// Three instrument kinds cover everything the delay/throughput analysis
// needs:
//
//   - Counter: a monotonic event count (cells, packets, drops).
//   - Gauge: a level with a high-watermark (FIFO occupancy, queue depth).
//   - Histogram: a fixed-bucket log-scale distribution over sim.Time
//     (cell latency, FIFO residency, DMA grant wait, reassembly time,
//     interrupt-to-service delay), from which p50/p99/max are derived.
//
// Names are hierarchical, dot-separated, and instance-scoped:
// "a.nic.tx.cells", "a.fifo.rx0.occupancy", "bus.a.txdma.grant_wait".
// A per-VC stats table (see VCStats) rides alongside the named instruments
// so connection-level accounting (cells/SDUs in/out, drops by cause, CRC
// errors) has one home regardless of which layer observed the event.
//
// Hot-path discipline: instrument updates are plain field operations on
// pre-resolved pointers — no map lookups, no allocation, no locking. Every
// instrument method is nil-safe (a method on a nil instrument is a no-op),
// so components can hold optional instruments and update unconditionally.
// Like the sim kernel itself, a Registry is single-goroutine: the kernel
// serializes all model callbacks, so instruments need no atomics.
package metrics

import "sort"

// Registry holds every instrument of one simulation (or one station, when
// stations are not meant to share a namespace). The zero value is not
// usable; call NewRegistry. All methods are nil-safe: a nil *Registry
// returns nil instruments, whose updates are no-ops.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	histos   map[string]*Histogram
	vcs      map[VCID]*VCStats
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		histos:   make(map[string]*Histogram),
		vcs:      make(map[VCID]*VCStats),
	}
}

// Counter returns the named counter, creating it on first use. Returns nil
// (a no-op counter) when r is nil.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil (a
// no-op gauge) when r is nil.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use. Returns
// nil (a no-op histogram) when r is nil.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	h := r.histos[name]
	if h == nil {
		h = &Histogram{name: name}
		r.histos[name] = h
	}
	return h
}

// VC returns the stats row for connection (vpi, vci), creating it on first
// use. Returns nil (a no-op row) when r is nil. Callers on per-cell paths
// should resolve the row once at VC-open time and cache the pointer.
func (r *Registry) VC(vpi, vci uint16) *VCStats {
	if r == nil {
		return nil
	}
	id := VCID{VPI: vpi, VCI: vci}
	s := r.vcs[id]
	if s == nil {
		s = &VCStats{VCID: id}
		r.vcs[id] = s
	}
	return s
}

// EachCounter calls fn for every registered counter in sorted name order —
// the deterministic iteration periodic samplers rely on. Nil-safe.
func (r *Registry) EachCounter(fn func(name string, value uint64)) {
	if r == nil {
		return
	}
	for _, n := range r.counterNames() {
		fn(n, r.counters[n].Value())
	}
}

// EachGauge calls fn for every registered gauge in sorted name order.
// Nil-safe.
func (r *Registry) EachGauge(fn func(name string, value, max int64)) {
	if r == nil {
		return
	}
	for _, n := range r.gaugeNames() {
		g := r.gauges[n]
		fn(n, g.Value(), g.Max())
	}
}

// counterNames returns registered counter names, sorted.
func (r *Registry) counterNames() []string {
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (r *Registry) gaugeNames() []string {
	names := make([]string, 0, len(r.gauges))
	for n := range r.gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (r *Registry) histoNames() []string {
	names := make([]string, 0, len(r.histos))
	for n := range r.histos {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (r *Registry) vcIDs() []VCID {
	ids := make([]VCID, 0, len(r.vcs))
	for id := range r.vcs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].VPI != ids[j].VPI {
			return ids[i].VPI < ids[j].VPI
		}
		return ids[i].VCI < ids[j].VCI
	})
	return ids
}

// Counter is a monotonically increasing event count.
type Counter struct {
	v uint64
}

// Inc adds one. No-op on a nil counter.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v++
}

// Add adds n. No-op on a nil counter.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v += n
}

// Value returns the count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is an instantaneous level with high-watermark tracking. The
// watermark records the largest value ever Set (or reached via Add).
type Gauge struct {
	v   int64
	max int64
}

// Set records the current level and updates the high watermark. No-op on a
// nil gauge.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v = v
	if v > g.max {
		g.max = v
	}
}

// Value returns the current level (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Max returns the high watermark (0 for a nil gauge).
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max
}
