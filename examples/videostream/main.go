// Videostream: a constant-bit-rate source (the multimedia workload the
// Aurora testbed anticipated) through the interface, measuring end-to-end
// delay and delay jitter per video frame — the QoS dimension where the
// per-packet architecture shines: no host scheduling noise per cell.
//
// It then repeats the run with competing bulk traffic on a second VC to
// show how much jitter the shared transmit path introduces.
//
//	go run ./examples/videostream
package main

import (
	"fmt"
	"log"
	"math"

	"repro/internal/core"
	"repro/internal/sim"
)

const (
	frameSize = 32 * 1024 // ~32 KiB per video frame
	frames    = 60
)

func main() {
	// 30 fps of 32 KiB frames ≈ 7.9 Mb/s — a 1991-era compressed stream.
	period := sim.Duration(33_333_333) // 33.333 ms in ns
	fmt.Printf("CBR stream: %d frames of %d bytes every %v (≈%.1f Mb/s)\n\n",
		frames, frameSize, period, float64(frameSize)*8/period.Seconds()/1e6)

	quiet := run(period, false, false)
	loaded := run(period, true, false)
	shaped := run(period, true, true)

	report("idle network          ", quiet)
	report("with bulk vc          ", loaded)
	report("bulk + interleave/pace", shaped)
	fmt.Println()
	fmt.Println("interleaved segmentation plus pacing the bulk flow restores the CBR")
	fmt.Println("stream's delay behaviour — the QoS case for per-VC scheduling on the adapter.")
}

// run streams the CBR flow and returns per-frame latencies. shaped enables
// multi-VC interleaving and paces the bulk flow to ~60% of the line.
func run(period sim.Duration, withBulk, shaped bool) []sim.Duration {
	// Two stations on a 10 km fiber with two connections from A to B: the
	// video stream and the bulk flow.
	opts := core.Options{InterleaveVCs: shaped}
	video := core.VC{VCI: 20}
	bulk := core.VC{VCI: 21}
	net, err := core.NewNetwork(core.NetworkSpec{
		Endpoints: []core.EndpointSpec{{Name: "A", Options: opts}, {Name: "B", Options: opts}},
		Links: []core.LinkSpec{{Name: "ab",
			A: core.NodeRef{Node: "A"}, B: core.NodeRef{Node: "B"}, DistanceKm: 10}},
		VCCs: []core.VCCSpec{
			{Name: "video", From: "A", To: "B", VC: video},
			{Name: "bulk", From: "A", To: "B", VC: bulk},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	a, b := net.Endpoint("A"), net.Endpoint("B")

	sendTimes := make([]sim.Time, 0, frames)
	var latencies []sim.Duration
	b.OnReceive(func(p core.Packet) {
		if p.VC != video {
			return
		}
		i := len(latencies)
		if i < len(sendTimes) {
			latencies = append(latencies, p.At-sendTimes[i])
		}
	})

	k := net.Kernel()
	sent := 0
	var tick func()
	tick = func() {
		if sent >= frames {
			return
		}
		sendTimes = append(sendTimes, k.Now())
		if err := a.Send(video, make([]byte, frameSize), nil); err != nil {
			log.Fatal(err)
		}
		sent++
		k.After(period, tick)
	}
	tick()

	if shaped {
		// Cap the bulk flow at ~210k cells/s (~60% of STS-3c payload).
		if err := a.SetPeakCellRate(bulk, 210_000); err != nil {
			log.Fatal(err)
		}
	}
	if withBulk {
		// A greedy bulk flow on the same interface, forever.
		deadline := sim.Time(frames+2) * sim.Time(period)
		var pump func()
		pump = func() {
			if k.Now() > deadline {
				return
			}
			a.Send(bulk, make([]byte, 65535), pump)
		}
		for i := 0; i < 3; i++ {
			pump()
		}
	}
	net.Run()
	if len(latencies) != frames {
		log.Fatalf("delivered %d of %d frames", len(latencies), frames)
	}
	return latencies
}

func report(label string, lat []sim.Duration) {
	var min, max, sum sim.Duration
	min = sim.Never
	for _, l := range lat {
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
		sum += l
	}
	mean := float64(sum) / float64(len(lat))
	var varsum float64
	for _, l := range lat {
		d := float64(l) - mean
		varsum += d * d
	}
	std := math.Sqrt(varsum / float64(len(lat)))
	fmt.Printf("%s  frames %d   delay min %v  mean %v  max %v   jitter(std) %v\n",
		label, len(lat), min, sim.Duration(mean), max, sim.Duration(std))
}
