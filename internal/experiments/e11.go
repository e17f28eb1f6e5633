package experiments

import (
	"fmt"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/experiments/runner"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/units"
)

// E11Point is one (engine count) measurement at STS-12c.
type E11Point struct {
	Engines    int
	GoodputBps float64
	FifoDrops  uint64
	Packets    uint64
	MeanUtil   float64
}

// E11 measures aggregate goodput at STS-12c across 8 concurrent VCs as the
// number of receive engines grows — the scale-out the era's delay analyses
// proposed for OC-12 ("a set of three processors…"). Shape: one 25 MHz
// engine drops cells and delivers almost nothing; goodput grows with
// engines until the wire (or the transmit side) becomes the limit, around
// 2-3 engines on this cost model.
func E11(engineCounts []int, runTime sim.Duration) ([]E11Point, *report.Series) {
	if len(engineCounts) == 0 {
		engineCounts = []int{1, 2, 3, 4, 8}
	}
	// 8 VCs, chosen to hash reasonably evenly across small engine counts.
	var vcs []atm.VC
	for i := 0; i < 8; i++ {
		vcs = append(vcs, atm.VC{VCI: uint16(200 + 13*i)})
	}
	pts := runner.Map(Parallelism(), len(engineCounts), func(i int) E11Point {
		return runE11Point(engineCounts[i], vcs, runTime)
	})
	x := make([]float64, len(engineCounts))
	for i, n := range engineCounts {
		x[i] = float64(n)
	}
	sr := report.NewSeries("E11: STS-12c aggregate goodput vs receive engines (8 VCs, 9180-B frames)",
		"rx-engines", x)
	var gps, utils []float64
	for _, p := range pts {
		gps = append(gps, p.GoodputBps/1e6)
		utils = append(utils, p.MeanUtil)
	}
	sr.Add("goodput-Mb/s", gps)
	sr.Add("mean-engine-util", utils)
	return pts, sr
}

// runE11Point measures one engine count in its own world. vcs is shared
// read-only across concurrent points.
func runE11Point(n int, vcs []atm.VC, runTime sim.Duration) E11Point {
	txOpts := core.Options{Rate: core.Rate622, InterleaveVCs: true}
	rxOpts := txOpts
	rxOpts.RxEngines = n
	// E9's result applied: per-engine FIFOs must absorb a full single-VC
	// burst backlog (~96 cells at this engine speed), because the
	// round-robin is only as smooth as the senders.
	rxOpts.RxFifoCells = 128
	// E11 isolates the engine scaling, so the (separable) host term is
	// taken out of the way: a host fast enough not to become the
	// bottleneck at multi-hundred-Mb/s receive rates, standing in for the
	// era's faster server hosts.
	rxOpts.HostMIPS = 200
	spec := pair(core.EndpointSpec{Name: "tx", Options: txOpts}, core.EndpointSpec{Name: "rx", Options: rxOpts},
		core.LinkSpec{Delay: 10_000, Seed: 23})
	for i, vc := range vcs {
		spec.VCCs = append(spec.VCCs, core.VCCSpec{Name: fmt.Sprint("vc", i), From: "tx", To: "rx", VC: vc})
	}
	net := build(spec)
	k := net.Kernel()
	tx, rx := net.Endpoint("tx").Interface(), net.Endpoint("rx").Interface()
	deadline := sim.Time(runTime)
	for _, vc := range vcs {
		var send func()
		send = func() {
			if k.Now() > deadline {
				return
			}
			// Each send's buffer is fresh and never touched again, so
			// ownership can transfer to the interface copy-free.
			tx.SendOwned(vc, make([]byte, 9180), send)
		}
		send()
	}
	k.RunUntil(deadline)
	bytes := rx.Stats().Rx.Bytes
	var util float64
	for _, e := range rx.RxEngines() {
		util += e.Utilization()
	}
	util /= float64(n)
	k.Run()
	st := rx.Stats()
	return E11Point{
		Engines:    n,
		GoodputBps: units.ThroughputBps(int64(bytes), deadline),
		FifoDrops:  st.Rx.FifoDrops,
		Packets:    st.Rx.Packets,
		MeanUtil:   util,
	}
}
