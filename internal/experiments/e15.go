package experiments

import (
	"fmt"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/experiments/runner"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/units"
)

// E15Point is one (overload, discard policy) goodput measurement at the
// congested switch port.
type E15Point struct {
	Overload    float64 // offered load / output port capacity
	EPD         bool
	GoodputBps  float64
	Efficiency  float64 // goodput / frame-goodput ceiling of the port
	TailDropped uint64
	EPDCells    uint64
	PPDCells    uint64
	AALErrors   uint64
	// Drop attribution split by level, summed from the per-VC metrics rows.
	// TimeoutFrames are partial frames aged out of the receiver's
	// reassembler (metrics.DropReassemblyTimeout): the frame-level residue
	// of cell-level tail drop, whose surviving cells crossed the congested
	// port for nothing. EPDDropCells are cells refused under
	// metrics.DropEPD — losses taken deliberately at frame granularity, so
	// they leave no stranded reassembly state behind.
	TimeoutFrames uint64
	EPDDropCells  uint64
}

// E15 reproduces the classic AAL5 goodput-collapse-and-recovery result:
// eight paced VCs from two stations converge on one switch output port at
// overloads from below saturation to 2x. With blind tail drop, each lost
// cell poisons a whole frame whose surviving cells still burn the
// congested port — goodput collapses as overload grows. With Early Packet
// Discard (refuse whole frames above a queue threshold) and Partial Packet
// Discard (kill the rest of a frame once one cell is lost), the port
// spends its cell slots almost exclusively on frames that will reassemble,
// and goodput stays pinned near the port ceiling. The gap is widest at
// moderate overload: tail drop is already shredding frames faster than it
// frees capacity, while EPD still finds whole-frame room in the queue.
func E15(overloads []float64, runTime sim.Duration) ([]E15Point, *report.Series) {
	if len(overloads) == 0 {
		overloads = []float64{0.7, 1.0, 1.3, 1.6, 2.0}
	}
	if runTime <= 0 {
		runTime = 40 * sim.Millisecond
	}
	type e15Case struct {
		epd bool
		ov  float64
	}
	var cases []e15Case
	for _, epd := range []bool{false, true} {
		for _, ov := range overloads {
			cases = append(cases, e15Case{epd, ov})
		}
	}
	pts := runner.Map(Parallelism(), len(cases), func(i int) E15Point {
		return runE15(cases[i].ov, cases[i].epd, runTime)
	})
	x := make([]float64, len(overloads))
	copy(x, overloads)
	sr := report.NewSeries("E15: goodput efficiency vs overload — tail drop vs EPD/PPD (AAL5)",
		"overload", x)
	for _, epd := range []bool{false, true} {
		name := "tail-drop"
		if epd {
			name = "epd-ppd"
		}
		var y []float64
		for _, pt := range pts {
			if pt.EPD == epd {
				y = append(y, pt.Efficiency)
			}
		}
		sr.Add(name, y)
	}
	return pts, sr
}

func runE15(overload float64, epd bool, runTime sim.Duration) E15Point {
	const (
		nPerSender = 4
		sduSize    = 1000 // 21 cells under AAL5
		frameCells = 21
		queueDepth = 96
		epdThresh  = 64 // leaves 32 cells of whole-frame headroom
	)
	// Senders interleave their VCs: with serial segmentation a pacing gap
	// on the active VC would idle the whole transmit engine and the
	// offered load could never reach the port. Unequal fiber runs break
	// the senders' cell-clock phase lock so the congestion pattern
	// resembles jittered real arrivals.
	net, err := core.NewNetwork(core.NetworkSpec{
		Endpoints: []core.EndpointSpec{
			{Name: "a", Options: core.Options{InterleaveVCs: true}},
			{Name: "b", Options: core.Options{InterleaveVCs: true}},
			// The receiver ages out partial frames a few frame times after
			// their last cell, so tail drop's stranded reassembly state is
			// counted (DropReassemblyTimeout) instead of lingering forever.
			{Name: "c", Options: core.Options{ReassemblyTimeout: sim.Millisecond}},
		},
		Switches: []core.SwitchSpec{
			{Name: "sw", Ports: 3, Rate: units.STS3cPayload, QueueDepth: queueDepth},
		},
		Links: []core.LinkSpec{
			{Name: "a-sw", A: core.NodeRef{Node: "a"}, B: core.NodeRef{Node: "sw", Port: 0}, Delay: 1000, Seed: 25},
			{Name: "b-sw", A: core.NodeRef{Node: "b"}, B: core.NodeRef{Node: "sw", Port: 1}, Delay: 2400, Seed: 26},
			{Name: "sw-c", A: core.NodeRef{Node: "sw", Port: 2}, B: core.NodeRef{Node: "c"}, Seed: 27},
		},
	})
	if err != nil {
		panic(err)
	}
	kern := net.Kernel()
	if epd {
		net.Switch("sw").SetThresholds(2, 0, epdThresh, 0)
	}

	// Aggregate offered load = overload x the output port's cell rate,
	// split evenly across the eight VCs by per-VC pacing. The VCCs are
	// best-effort (zero contract → UBR), so all eight admit.
	portRate := units.CellRate(units.STS3cPayload)
	perVC := overload * portRate / (2 * nPerSender)
	deadline := sim.Time(runTime)
	for i := 0; i < nPerSender; i++ {
		for j, name := range []string{"a", "b"} {
			vc := atm.VC{VCI: uint16(1 + i + 10*j)}
			vcc, err := net.AddVCC(core.VCCSpec{
				Name: fmt.Sprintf("%s-%d", name, i),
				From: name, To: "c", VC: vc,
			})
			if err != nil {
				panic(err)
			}
			snd := net.Endpoint(name)
			if err := snd.SetPeakCellRate(vcc.SourceVC, perVC); err != nil {
				panic(err)
			}
			core.NewSource(snd, vcc.SourceVC, sduSize, deadline).Start(2)
		}
	}

	kern.RunUntil(deadline)
	st := net.Endpoint("c").Stats()
	goodput := units.ThroughputBps(int64(st.Rx.Bytes), deadline)
	kern.Run()

	// Attribute losses by level from the per-VC metrics rows, after the
	// drain so end-of-run stale frames have been reaped and counted.
	var timeoutFrames, epdDropCells uint64
	for _, vs := range net.Metrics().Snapshot().VCs {
		timeoutFrames += vs.Drops[metrics.DropReassemblyTimeout.String()]
		epdDropCells += vs.Drops[metrics.DropEPD.String()]
	}

	sws := net.Switch("sw").Stats()
	return E15Point{
		Overload:      overload,
		EPD:           epd,
		GoodputBps:    goodput,
		Efficiency:    goodput / sduCeilingBps(units.STS3cPayload, sduSize, frameCells),
		TailDropped:   sws.Dropped,
		EPDCells:      sws.EPDCells,
		PPDCells:      sws.PPDCells,
		AALErrors:     st.Rx.AALErrors,
		TimeoutFrames: timeoutFrames,
		EPDDropCells:  epdDropCells,
	}
}

// e15Label is used by atmbench's verbose output.
func (p E15Point) String() string {
	pol := "tail"
	if p.EPD {
		pol = "epd"
	}
	return fmt.Sprintf("ov=%.1f %s eff=%.3f tail=%d epd=%d ppd=%d aalerr=%d stale=%d epdvc=%d",
		p.Overload, pol, p.Efficiency, p.TailDropped, p.EPDCells, p.PPDCells, p.AALErrors,
		p.TimeoutFrames, p.EPDDropCells)
}
