package experiments

import (
	"bytes"
	"fmt"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/nic"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/transport"
)

// E12Point is one (loss rate, discipline) end-to-end transport measurement.
type E12Point struct {
	LossProb    float64
	Selective   bool
	GoodputBps  float64
	Retransmits uint64
	Timeouts    uint64
	Delivered   bool
}

// E12 measures the host-resident go-back-N transport's goodput versus cell
// loss — the end-to-end consequence of the layering the architecture
// prescribes (extension figure). Shape: delivery stays perfect while
// goodput falls off a cliff, because AAL5 amplifies one lost cell into a
// lost segment and go-back-N amplifies one lost segment into a resent
// window. This is E8's physics surfaced at the application.
func E12(lossProbs []float64, msgSize int) ([]E12Point, *report.Series) {
	if len(lossProbs) == 0 {
		lossProbs = []float64{0, 1e-4, 5e-4, 2e-3, 5e-3}
	}
	if msgSize <= 0 {
		msgSize = 1 << 20
	}
	var pts []E12Point
	for _, selective := range []bool{false, true} {
		for _, p := range lossProbs {
			pts = append(pts, runE12(p, msgSize, selective))
		}
	}
	x := make([]float64, len(lossProbs))
	for i, p := range lossProbs {
		x[i] = p
	}
	sr := report.NewSeries(
		fmt.Sprintf("E12: host transport goodput vs cell loss (%d-byte transfers)", msgSize),
		"loss-prob", x)
	for _, selective := range []bool{false, true} {
		name := "go-back-N"
		if selective {
			name = "selective"
		}
		var gps, rtx []float64
		for _, pt := range pts {
			if pt.Selective == selective {
				gps = append(gps, pt.GoodputBps/1e6)
				rtx = append(rtx, float64(pt.Retransmits))
			}
		}
		sr.Add(name+"-Mb/s", gps)
		sr.Add(name+"-rtx", rtx)
	}
	return pts, sr
}

func runE12(loss float64, msgSize int, selective bool) E12Point {
	vc := atm.VC{VCI: 60}
	net := build(pair(core.EndpointSpec{Name: "a"}, core.EndpointSpec{Name: "b"},
		core.LinkSpec{Delay: 10_000, LossProb: loss, Seed: 7},
		core.VCCSpec{Name: "ab", From: "a", To: "b", VC: vc, Duplex: true}))
	k := net.Kernel()
	a, b := net.Endpoint("a").Interface(), net.Endpoint("b").Interface()

	cfg := transport.DefaultConfig()
	cfg.RTO = 5 * sim.Millisecond
	cfg.MaxRetries = 200
	cfg.SelectiveRepeat = selective
	tx := transport.NewSender(k, a, vc, cfg)

	msg := make([]byte, msgSize)
	for i := range msg {
		msg[i] = byte(i * 13)
	}
	var got []byte
	rx := transport.NewReceiver(b, vc, func(m []byte) { got = m })
	rx.SelectiveRepeat = selective
	b.OnReceive(func(d nic.Delivered) { rx.HandleData(d.SDU) })
	a.OnReceive(func(d nic.Delivered) { tx.HandleAck(d.SDU) })

	var done sim.Time
	var failed bool
	tx.Send(msg, func(err error) {
		if err != nil {
			failed = true
			return
		}
		done = k.Now()
	})
	k.Run()
	st := tx.Stats()
	pt := E12Point{LossProb: loss, Selective: selective, Retransmits: st.Retransmits, Timeouts: st.Timeouts}
	if !failed && done > 0 && bytes.Equal(got, msg) {
		pt.Delivered = true
		pt.GoodputBps = float64(msgSize) * 8 / done.Seconds()
	}
	return pt
}
