package experiments

import (
	"math"

	"repro/internal/aal"
	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments/runner"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/units"
)

// E8Point is one (loss rate, SDU size) goodput measurement.
type E8Point struct {
	LossProb      float64
	Size          int
	DeliveredFrac float64 // frames delivered / frames sent
	GoodputBps    float64
	PredictedFrac float64 // (1-p)^cells — the whole-frame-discard model
}

// E8Config tunes the sweep.
type E8Config struct {
	LossProbs []float64
	Sizes     []int
	RunTime   sim.Duration
}

// DefaultE8 is the full sweep.
func DefaultE8() E8Config {
	return E8Config{
		LossProbs: []float64{1e-5, 1e-4, 1e-3, 3e-3, 1e-2, 3e-2},
		Sizes:     []int{1024, 9180, 65535},
		RunTime:   60 * sim.Millisecond,
	}
}

// E8 measures AAL5 goodput versus cell-loss rate. AAL5 discards the whole
// frame on any lost cell, so delivered fraction tracks (1-p)^cells and
// collapses where p·cells ≈ 1 — earlier for bigger frames. This is the
// loss-sensitivity cliff that motivated the era's FEC/retransmission work.
func E8(ec E8Config) ([]E8Point, *report.Series) {
	type e8Case struct {
		size int
		p    float64
	}
	var cases []e8Case
	for _, size := range ec.Sizes {
		for _, p := range ec.LossProbs {
			cases = append(cases, e8Case{size, p})
		}
	}
	pts := runner.Map(Parallelism(), len(cases), func(i int) E8Point {
		return runE8Point(cases[i].size, cases[i].p, ec)
	})
	x := make([]float64, len(ec.LossProbs))
	for i, p := range ec.LossProbs {
		x[i] = p
	}
	sr := report.NewSeries("E8: AAL5 delivered-frame fraction vs cell loss probability", "loss-prob", x)
	for _, size := range ec.Sizes {
		var y, pred []float64
		for _, pt := range pts {
			if pt.Size == size {
				y = append(y, pt.DeliveredFrac)
				pred = append(pred, pt.PredictedFrac)
			}
		}
		sr.Add(sizeLabel(size), y)
		sr.Add(sizeLabel(size)+"-model", pred)
	}
	return pts, sr
}

// runE8Point measures one (size, loss probability) point in its own world.
func runE8Point(size int, p float64, ec E8Config) E8Point {
	deadline := sim.Time(ec.RunTime)
	var src *core.Source
	b := runPair(core.Options{},
		core.LinkSpec{Delay: 10_000, LossProb: p, Seed: uint64(size) + uint64(p*1e7)},
		deadline+sim.Time(ec.RunTime/2),
		func(k *sim.Kernel, a, b *core.Endpoint) {
			src = core.NewSource(a, stdVC, size, deadline)
			src.Start(4)
		})
	st := b.Stats()
	sent := src.Sent
	frac := 0.0
	if sent > 0 {
		frac = float64(st.Rx.Packets) / float64(sent)
	}
	cells := aal.CellsForSDU5(size)
	return E8Point{
		LossProb: p, Size: size,
		DeliveredFrac: frac,
		GoodputBps:    b.Goodput(),
		PredictedFrac: math.Pow(1-p, float64(cells)),
	}
}

func sizeLabel(n int) string {
	switch {
	case n >= 1024 && n%1024 == 0:
		return itoa(n/1024) + "KiB"
	default:
		return itoa(n) + "B"
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// E9Point is one FIFO-depth measurement at STS-12c.
type E9Point struct {
	Depth     int
	FifoDrops uint64
	Packets   uint64
	MaxFifo   int
}

// E9 sweeps the RX FIFO depth at STS-12c with paced MTU packets. Within one
// 192-cell frame the 25 MHz receive engine falls behind the arriving cells;
// the FIFO must absorb that intra-frame backlog (~60-100 cells) and drain
// in the inter-packet gap the pacing provides. Paper shape: a hard cliff —
// depths below the per-frame backlog lose cells on every frame, depths
// above it lose none. (An unpaced greedy source oversubscribes the engine
// permanently and no finite FIFO survives; that regime is E3's 622 result.)
func E9(depths []int, runTime sim.Duration) ([]E9Point, *report.Series) {
	if len(depths) == 0 {
		depths = []int{8, 16, 32, 64, 96, 128, 192}
	}
	pts := runner.Map(Parallelism(), len(depths), func(i int) E9Point {
		return runE9Point(depths[i], runTime)
	})
	x := make([]float64, len(depths))
	for i, d := range depths {
		x[i] = float64(d)
	}
	sr := report.NewSeries("E9: RX FIFO depth vs overflow at STS-12c (9180-B frames)", "fifo-cells", x)
	var drops, pkts []float64
	for _, p := range pts {
		drops = append(drops, float64(p.FifoDrops))
		pkts = append(pkts, float64(p.Packets))
	}
	sr.Add("cell-drops", drops)
	sr.Add("packets-delivered", pkts)
	return pts, sr
}

// runE9Point measures one FIFO depth in its own world.
func runE9Point(d int, runTime sim.Duration) E9Point {
	deadline := sim.Time(runTime)
	b := runPair(core.Options{Rate: core.Rate622, RxFifoCells: d}, core.LinkSpec{Delay: 10_000, Seed: 17},
		deadline+sim.Time(runTime/2),
		func(k *sim.Kernel, a, b *core.Endpoint) {
			// One 192-cell frame every 500 µs: the wire burst lasts
			// ~136 µs (or ~185 µs engine-paced), leaving a drain gap.
			payload := make([]byte, 9180)
			var tick func()
			tick = func() {
				if k.Now() > deadline {
					return
				}
				a.Send(stdVC, payload, nil)
				k.After(500*sim.Microsecond, tick)
			}
			tick()
		})
	st := b.Stats()
	return E9Point{Depth: d, FifoDrops: st.Rx.FifoDrops,
		Packets: st.Rx.Packets, MaxFifo: st.Rx.MaxFifo}
}

// E10Point is one engine-clock measurement.
type E10Point struct {
	ClockMHz   int
	RxCellTime sim.Duration
	MaxMbps    float64 // payload rate the rx engine sustains
	OK155      bool
	OK622      bool
}

// E10 computes, for a range of engine clocks, the maximum ATM payload rate
// the receive engine sustains on MTU-dominated traffic: the steady-state
// per-cell routine (CAM lookup, paged append) with the per-frame EOP cost
// amortized over a 192-cell frame. Paper shape: 25 MHz-class parts clear
// 155 Mb/s with margin; 622 Mb/s needs either a ~3x faster engine, multiple
// engines, or hardware assist.
func E10(clocksMHz []int) ([]E10Point, *report.Series) {
	if len(clocksMHz) == 0 {
		clocksMHz = []int{12, 25, 33, 50, 66, 100, 150}
	}
	var pts []E10Point
	for _, mhz := range clocksMHz {
		k := sim.NewKernel()
		cfg := engine.DefaultConfig()
		cfg.ClockHz = int64(mhz) * 1_000_000
		eng := engine.New(k, cfg)
		// Steady-state per-cell work: rx_cell with CAM lookup and paged
		// append, plus the EOP routine amortized over an MTU frame.
		rx := boardRxCosts()
		perCell := eng.RoutineTime(rx[0].Instr) + eng.RoutineTime(rx[1].Instr)/sim.Duration(aal.CellsForSDU5(9180))
		// Max sustainable cell rate = 1/perCell; payload bits/s.
		maxMbps := 1e9 / float64(perCell) * atm.CellSize * 8 / 1e6
		pts = append(pts, E10Point{
			ClockMHz: mhz, RxCellTime: perCell, MaxMbps: maxMbps,
			OK155: perCell <= units.CellTime(units.STS3cPayload),
			OK622: perCell <= units.CellTime(units.STS12cPayload),
		})
	}
	x := make([]float64, len(clocksMHz))
	for i, m := range clocksMHz {
		x[i] = float64(m)
	}
	sr := report.NewSeries("E10: max sustainable payload rate vs engine clock (MTU-amortized receive path)",
		"engine-MHz", x)
	var y []float64
	for _, p := range pts {
		y = append(y, p.MaxMbps)
	}
	sr.Add("max-Mb/s", y)
	sr.Add("need-155", constSeries(149.76, len(x)))
	sr.Add("need-622", constSeries(599.04, len(x)))
	return pts, sr
}

func constSeries(v float64, n int) []float64 {
	y := make([]float64, n)
	for i := range y {
		y[i] = v
	}
	return y
}
