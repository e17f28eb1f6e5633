package experiments

import (
	"fmt"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/nic"
	"repro/internal/oam"
	"repro/internal/report"
	"repro/internal/sim"
)

// E17Result measures one scripted link failure and repair: a greedy AAL5
// flow crosses src → sw1 → sw2 → dst, the sw1→sw2 fiber is cut a quarter of
// the way through the run and restored at the halfway mark, and the fault
// plane is observed end to end.
type E17Result struct {
	KillAt    sim.Time
	RestoreAt sim.Time

	// DetectLatency: fiber cut → first AIS cell on the wire toward dst
	// (sw2's loss-of-signal hold-off is the propagation delay; its first
	// AIS batch goes out immediately on detection).
	DetectLatency sim.Duration
	// AISRaised: fiber cut → dst's host notified of the declared AIS
	// alarm. AISCleared: fiber restored → dst's host notified of the
	// clear (AIS generation stops, then the soak timer runs out).
	AISRaised  sim.Duration
	AISCleared sim.Duration
	// RDIRaised: fiber cut → src's host learns the far end cannot hear it
	// (dst's RDI crossed the intact reverse path). RDICleared: restore →
	// src's clear notification.
	RDIRaised  sim.Duration
	RDICleared sim.Duration
	// RecoveryLatency: fiber restored → first complete frame delivered at
	// dst (post-repair cell flow plus one reassembly).
	RecoveryLatency sim.Duration

	PreFaultDelivered    uint64 // frames delivered before the cut
	PostRestoreDelivered uint64 // frames delivered after the repair
	CellsDroppedDown     uint64 // cells offered to the dead fiber
	AISCellsSent         uint64 // AIS cells sw2 inserted
	RDICellsSent         uint64 // RDI cells dst generated upstream
	StaleFramesReclaimed uint64 // partial frames the reassembly GC aborted
	SRAMPreFault         int    // dst reassembly bytes pinned just before the cut
	SRAMEnd              int    // …and after the run drained (0 = no leak)
}

// E17 is the fault-management experiment: survive the fault you inject.
// A link mid-path dies under load and comes back. The switch downstream of
// the cut inserts F5 AIS toward the destination; the destination's NIC
// declares the alarm (one host interrupt, not one per cell), answers with
// RDI upstream every alarm period, and the source learns its transmit path
// is dead. Meanwhile the destination's reassembler is left holding frames
// whose end-of-message died on the wire — the staleness GC reclaims them,
// so adapter SRAM returns to baseline instead of leaking toward
// exhaustion. After repair the alarms soak out and the flow resumes.
//
// Reported: fault-detection latency, AIS/RDI propagation and clear times,
// post-repair recovery time, and the buffer accounting.
func E17(runTime sim.Duration) (E17Result, *report.Series) {
	if runTime <= 0 {
		runTime = 20 * sim.Millisecond
	}
	const (
		sdu       = 9180                  // IP-MTU frames: 192 cells under AAL5
		aisPeriod = 100 * sim.Microsecond // switch AIS insertion cadence
		rdiPeriod = 100 * sim.Microsecond // NIC RDI generation cadence
		soak      = 300 * sim.Microsecond // alarm clear timeout
		rasGC     = 500 * sim.Microsecond // reassembly staleness timeout
	)
	opts := core.Options{
		ReassemblyTimeout: rasGC,
		AlarmPeriod:       rdiPeriod,
		AlarmClearTimeout: soak,
	}
	spec := core.NetworkSpec{
		Endpoints: []core.EndpointSpec{
			{Name: "src", Options: opts},
			{Name: "dst", Options: opts},
		},
		Switches: []core.SwitchSpec{
			{Name: "sw1", Ports: 2, QueueDepth: 96, AISPeriod: aisPeriod},
			{Name: "sw2", Ports: 2, QueueDepth: 96, AISPeriod: aisPeriod},
		},
		Links: []core.LinkSpec{
			{Name: "src-sw1", A: core.NodeRef{Node: "src"},
				B: core.NodeRef{Node: "sw1", Port: 0}, Delay: 10_000, Seed: 90},
			// The mid-path fiber under test: 10 km, so detection (one
			// propagation delay after the cut) is visibly nonzero.
			{Name: "sw1-sw2", A: core.NodeRef{Node: "sw1", Port: 1},
				B: core.NodeRef{Node: "sw2", Port: 0}, DistanceKm: 10, Seed: 91},
			{Name: "sw2-dst", A: core.NodeRef{Node: "sw2", Port: 1},
				B: core.NodeRef{Node: "dst"}, Delay: 10_000, Seed: 92},
		},
		// Duplex: the reverse path carries dst's RDI back to src — killing
		// only the forward fiber is what keeps the defect reportable.
		VCCs: []core.VCCSpec{
			{Name: "flow", From: "src", To: "dst",
				VC: atm.VC{VCI: 100}, Duplex: true},
		},
	}
	net, err := core.NewNetwork(spec)
	if err != nil {
		panic(err)
	}
	kern := net.Kernel()
	deadline := sim.Time(runTime)
	kill := deadline / 4
	restore := deadline / 2

	res := E17Result{KillAt: kill, RestoreAt: restore}
	flow := net.VCC("flow")
	src, dst := net.Endpoint("src"), net.Endpoint("dst")

	// Alarm plane observers: declare/clear timestamps at both hosts.
	var aisUp, aisDown, rdiUp, rdiDown sim.Time
	dst.OnAlarm(func(ev nic.AlarmEvent) {
		if ev.Kind != nic.AlarmAIS {
			return
		}
		if ev.Raised && aisUp == 0 {
			aisUp = ev.At
		} else if !ev.Raised && aisDown == 0 {
			aisDown = ev.At
		}
	})
	src.OnAlarm(func(ev nic.AlarmEvent) {
		if ev.Kind != nic.AlarmRDI {
			return
		}
		if ev.Raised && rdiUp == 0 {
			rdiUp = ev.At
		} else if !ev.Raised && rdiDown == 0 {
			rdiDown = ev.At
		}
	})

	// Wire tap on the last fiber: the first AIS cell toward dst marks
	// network-visible fault detection.
	var firstAIS sim.Time
	dstIface := dst.Interface()
	net.Link("sw2-dst").Fwd.AttachSink(atm.SinkFunc(func(c *atm.Cell) {
		if firstAIS == 0 && !c.Header.PT.User() {
			if _, fn, ok := oam.Classify(&c.Payload); ok && fn == oam.FuncAIS {
				firstAIS = kern.Now()
			}
		}
		dstIface.DeliverCell(c)
	}))

	// Delivery accounting, split around the fault window.
	var preFault, postRestore uint64
	var firstAfterRestore sim.Time
	dst.OnReceive(func(p core.Packet) {
		switch {
		case kern.Now() < kill:
			preFault++
		case kern.Now() >= restore:
			postRestore++
			if firstAfterRestore == 0 {
				firstAfterRestore = p.At
			}
		}
	})

	// Greedy load: a windowed source keeps frames in flight for the whole
	// run, straight through the outage.
	core.NewSource(src, flow.SourceVC, sdu, deadline).Start(4)

	link := net.Link("sw1-sw2")
	kern.At(kill, func() {
		res.SRAMPreFault = dstIface.SRAMUsed()
		link.Fwd.Fail()
	})
	kern.At(restore, func() { link.Fwd.Restore() })
	kern.RunUntil(deadline)
	kern.Run()

	delta := func(t, from sim.Time) sim.Duration {
		if t == 0 {
			return -1 // never observed
		}
		return t - from
	}
	res.DetectLatency = delta(firstAIS, kill)
	res.AISRaised = delta(aisUp, kill)
	res.AISCleared = delta(aisDown, restore)
	res.RDIRaised = delta(rdiUp, kill)
	res.RDICleared = delta(rdiDown, restore)
	res.RecoveryLatency = delta(firstAfterRestore, restore)
	res.PreFaultDelivered = preFault
	res.PostRestoreDelivered = postRestore
	res.CellsDroppedDown = link.Fwd.Stats().DroppedDown
	res.AISCellsSent = net.Switch("sw2").Stats().AISCells
	res.RDICellsSent = dstIface.FMStats().RDITx
	res.StaleFramesReclaimed = dstIface.Stats().Rx.Stale
	res.SRAMEnd = dstIface.SRAMUsed()

	us := func(d sim.Duration) float64 { return float64(d) / 1000 }
	sr := report.NewSeries("E17: link failure and recovery — AIS/RDI propagation and reassembly reclaim",
		"event", []float64{1, 2, 3, 4})
	sr.Add("latency-us (detect, ais, rdi, recovery)", []float64{
		us(res.DetectLatency), us(res.AISRaised), us(res.RDIRaised), us(res.RecoveryLatency),
	})
	return res, sr
}

// String is used by atmbench's verbose output.
func (r E17Result) String() string {
	return fmt.Sprintf(
		"kill=%v restore=%v detect=%v ais=%v/%v rdi=%v/%v recover=%v pre=%d post=%d lost=%d aistx=%d rditx=%d stale=%d sram=%d→%d",
		r.KillAt, r.RestoreAt, r.DetectLatency,
		r.AISRaised, r.AISCleared, r.RDIRaised, r.RDICleared,
		r.RecoveryLatency, r.PreFaultDelivered, r.PostRestoreDelivered,
		r.CellsDroppedDown, r.AISCellsSent, r.RDICellsSent,
		r.StaleFramesReclaimed, r.SRAMPreFault, r.SRAMEnd)
}
