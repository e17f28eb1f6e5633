package experiments

import (
	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/fec"
	"repro/internal/nic"
	"repro/internal/report"
	"repro/internal/sim"
)

// E13Point is one (loss, FEC on/off) delivered-fraction measurement.
type E13Point struct {
	LossProb      float64
	FEC           bool
	DeliveredFrac float64
	Recovered     uint64
	Overhead      float64 // extra wire fraction FEC spends (1/k when on)
}

// E13 measures what packet-level XOR FEC (one parity per k frames) buys
// back from E8's loss cliff: delivered fraction vs cell loss with and
// without FEC, open loop, no retransmissions. Shape: around the region
// where roughly one frame per group is lost (p·cells·k ≈ 1), FEC holds
// delivery near 1.0 while the unprotected flow already bleeds; at higher
// loss multiple frames per group die and FEC's advantage collapses — the
// known limit of single-parity codes.
func E13(lossProbs []float64, sduSize, k int, runTime sim.Duration) ([]E13Point, *report.Series) {
	if len(lossProbs) == 0 {
		lossProbs = []float64{1e-4, 3e-4, 1e-3, 3e-3, 1e-2}
	}
	if sduSize <= 0 {
		sduSize = 9180
	}
	if k <= 0 {
		k = 8
	}
	var pts []E13Point
	for _, useFEC := range []bool{false, true} {
		for _, p := range lossProbs {
			pts = append(pts, runE13(p, sduSize, k, useFEC, runTime))
		}
	}
	x := make([]float64, len(lossProbs))
	copy(x, lossProbs)
	sr := report.NewSeries("E13: delivered-frame fraction vs cell loss, packet-level XOR FEC",
		"loss-prob", x)
	for _, useFEC := range []bool{false, true} {
		name := "no-fec"
		if useFEC {
			name = "fec-k8"
		}
		var y []float64
		for _, pt := range pts {
			if pt.FEC == useFEC {
				y = append(y, pt.DeliveredFrac)
			}
		}
		sr.Add(name, y)
	}
	return pts, sr
}

func runE13(loss float64, sduSize, k int, useFEC bool, runTime sim.Duration) E13Point {
	vc := atm.VC{VCI: 70}
	net := build(pair(core.EndpointSpec{Name: "a"}, core.EndpointSpec{Name: "b"},
		core.LinkSpec{Delay: 10_000, LossProb: loss, Seed: 31},
		core.VCCSpec{Name: "ab", From: "a", To: "b", VC: vc}))
	kern := net.Kernel()
	a, b := net.Endpoint("a").Interface(), net.Endpoint("b").Interface()

	delivered := uint64(0)
	var dec *fec.Decoder
	if useFEC {
		dec = fec.NewDecoder(func(p []byte, rec bool) { delivered++ })
		b.OnReceive(func(d nic.Delivered) { dec.Push(d.SDU) })
	} else {
		b.OnReceive(func(d nic.Delivered) { delivered++ })
	}

	enc := fec.NewEncoder(k)
	payload := make([]byte, sduSize)
	deadline := sim.Time(runTime)
	sent := uint64(0)
	var send func()
	send = func() {
		if kern.Now() > deadline {
			return
		}
		sent++
		if useFEC {
			data, parity, err := enc.Encode(payload)
			if err != nil {
				panic(err)
			}
			if parity != nil {
				// Chain the next send off the parity frame so the
				// closed loop keeps the same in-flight depth.
				a.Send(vc, data, nil)
				a.Send(vc, parity, send)
				return
			}
			a.Send(vc, data, send)
			return
		}
		a.Send(vc, payload, send)
	}
	for i := 0; i < 3; i++ {
		send()
	}
	kern.Run()

	pt := E13Point{LossProb: loss, FEC: useFEC}
	if sent > 0 {
		pt.DeliveredFrac = float64(delivered) / float64(sent)
		if pt.DeliveredFrac > 1 {
			pt.DeliveredFrac = 1
		}
	}
	if useFEC {
		pt.Overhead = 1 / float64(k)
		pt.Recovered = dec.Stats().Recovered
	}
	return pt
}
