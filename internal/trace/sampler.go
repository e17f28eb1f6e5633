package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// Sampler snapshots a registry's counters and gauges on a fixed period of
// simulated time, producing the time series (queue depth, cells forwarded,
// drops) that feedback-loop studies plot. It schedules its own kernel
// events only up to the stop time handed to Start, so a drained simulation
// still terminates.
type Sampler struct {
	k      *sim.Kernel
	reg    *metrics.Registry
	period sim.Duration
	until  sim.Time
	tickFn func()

	rows []SampleRow
	cols map[string]bool
}

// SampleRow is one sampling instant: every registered counter value and
// gauge level at that simulated time.
type SampleRow struct {
	At     sim.Time
	Values map[string]float64
}

// NewSampler builds a sampler reading reg on kernel k every period.
func NewSampler(k *sim.Kernel, reg *metrics.Registry, period sim.Duration) *Sampler {
	if period <= 0 {
		panic("trace: sampler period must be positive")
	}
	s := &Sampler{k: k, reg: reg, period: period, cols: make(map[string]bool)}
	s.tickFn = s.tick
	return s
}

// Start arms the sampler: rows are recorded at each period boundary from
// now until the stop time (inclusive), after which the sampler goes quiet
// and the kernel can drain.
func (s *Sampler) Start(until sim.Time) {
	s.until = until
	s.k.PostAfter(s.period, s.tickFn)
}

func (s *Sampler) tick() {
	now := s.k.Now()
	if now > s.until {
		return
	}
	row := SampleRow{At: now, Values: make(map[string]float64)}
	s.reg.EachCounter(func(name string, v uint64) {
		row.Values[name] = float64(v)
		s.cols[name] = true
	})
	s.reg.EachGauge(func(name string, v, max int64) {
		row.Values[name] = float64(v)
		s.cols[name] = true
	})
	s.rows = append(s.rows, row)
	if now+sim.Time(s.period) <= s.until {
		s.k.PostAfter(s.period, s.tickFn)
	}
}

// Rows returns the recorded series oldest-first. No program reads it (they
// write CSV); TestE20SingleFlowShape reads the sampled cwnd series through
// it, and the sampler tests its row times.
func (s *Sampler) Rows() []SampleRow { return s.rows }

// columns is the sorted union of every instrument name seen — instruments
// created mid-run appear as columns with zeros before their birth.
func (s *Sampler) columns() []string {
	cols := make([]string, 0, len(s.cols))
	for c := range s.cols {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	return cols
}

// WriteCSV emits the series as CSV: a t_ns column followed by one column
// per instrument, names sorted, missing values zero.
func (s *Sampler) WriteCSV(w io.Writer) error {
	cols := s.columns()
	cw := csv.NewWriter(w)
	if err := cw.Write(append([]string{"t_ns"}, cols...)); err != nil {
		return err
	}
	rec := make([]string, len(cols)+1)
	for _, row := range s.rows {
		rec[0] = strconv.FormatInt(int64(row.At), 10)
		for i, c := range cols {
			rec[i+1] = strconv.FormatFloat(row.Values[c], 'g', -1, 64)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON emits the series as a JSON array of {t_ns, values} rows; map
// keys marshal sorted, so identical runs produce identical bytes.
func (s *Sampler) WriteJSON(w io.Writer) error {
	type jsonRow struct {
		T      int64              `json:"t_ns"`
		Values map[string]float64 `json:"values"`
	}
	rows := make([]jsonRow, len(s.rows))
	for i, r := range s.rows {
		rows[i] = jsonRow{T: int64(r.At), Values: r.Values}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(rows)
}

// String summarizes the sampler state for diagnostics.
func (s *Sampler) String() string {
	return fmt.Sprintf("sampler: %d rows x %d columns, period %v", len(s.rows), len(s.cols), s.period)
}
