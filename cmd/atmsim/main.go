// Command atmsim runs a configurable end-to-end simulation of two
// workstations with the SIGCOMM '91 host interface, and prints a summary of
// what every component did. It is the exploratory companion to atmbench's
// fixed experiments.
//
//	atmsim -rate 622 -aal 3/4 -size 9180 -duration 50ms -loss 1e-4
//	atmsim -workload bimodal -duration 100ms
//	atmsim -arch percell -size 1000     # the per-cell-interrupt baseline
//	atmsim -contract 150000,50000,32 -police    # shaped VC through a policing switch
//	atmsim -size 1000 -epd 48                   # early packet discard at the switch
//	atmsim -rate 622 -abr -duration 100ms       # ABR closed loop through an ERICA switch
//	atmsim -kill 10ms -restore 25ms -rtimeout 1ms   # cut and repair the a->b fiber
//	atmsim -trace out.json                      # Perfetto trace of every hop
//	atmsim -sample 100us -sampleout series.csv  # periodic telemetry time series
//	atmsim -tcp 1000000 -duration 200ms         # TCP Reno transfer over RFC 2684
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/aal"
	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/ip"
	"repro/internal/netsim"
	"repro/internal/nic"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/tm"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

func main() {
	rate := flag.Int("rate", 155, "link rate: 155 or 622")
	aalFlag := flag.String("aal", "5", "adaptation layer: 5 or 3/4")
	arch := flag.String("arch", "engine", "architecture: engine, hardwired, percell")
	size := flag.Int("size", 9180, "packet size for fixed workload (bytes)")
	wl := flag.String("workload", "fixed", "workload: fixed, bimodal, bursty, cbr")
	duration := flag.Duration("duration", 50*time.Millisecond, "simulated duration")
	loss := flag.Float64("loss", 0, "cell loss probability")
	window := flag.Int("window", 4, "packets in flight (fixed workload)")
	seed := flag.Uint64("seed", 1, "random seed")
	rxEngines := flag.Int("rxengines", 1, "parallel receive engines")
	interleave := flag.Bool("interleave", false, "interleave VCs on transmit")
	dumpN := flag.Int("dump", 0, "dump the first N cells on the a->b fiber")
	tracePath := flag.String("trace", "", "record a cell-journey flight trace and write Perfetto/Chrome trace-event JSON to this file (\"-\" for stdout)")
	traceSample := flag.Int("tracesample", 1, "with -trace: record every Nth cell per stage and VC (1 = all)")
	samplePeriod := flag.Duration("sample", 0, "snapshot all registry counters/gauges every period of simulated time (0 = off)")
	samplePath := flag.String("sampleout", "samples.csv", "with -sample: write the time series here (.json for JSON, else CSV; \"-\" for CSV on stdout)")
	metricsPath := flag.String("metrics", "", "write a JSON telemetry snapshot to this file (\"-\" for stdout)")
	stats := flag.Bool("stats", false, "print the full telemetry table after the run")
	contract := flag.String("contract", "", "shape a's VC to a traffic contract: \"pcr\" (CBR, cells/s) or \"pcr,scr,mbs\" (rt-VBR)")
	police := flag.Bool("police", false, "route through a 155 Mb/s switch whose ingress polices -contract (tagging SCR violators)")
	epd := flag.Int("epd", 0, "route through a 155 Mb/s switch with early packet discard above this queue depth (0 = off; congests with -rate 622)")
	abr := flag.Bool("abr", false, "run the VCC as an ABR connection: route through a 155 Mb/s switch running ERICA explicit-rate feedback and EFCI marking, with the source rate steered by RM cells (congests with -rate 622; incompatible with -contract)")
	kill := flag.Duration("kill", 0, "cut the a->b fiber at this simulated time (0 = never); alarm events print as they fire")
	restore := flag.Duration("restore", 0, "restore the cut fiber at this simulated time (0 = stays dark, and the run ends at -duration without draining)")
	rtimeout := flag.Duration("rtimeout", 0, "reassembly staleness timeout: partial frames idle this long are aborted and their adapter buffers reclaimed (0 = off)")
	tcpBytes := flag.Int("tcp", 0, "replace the raw workload with a TCP Reno bulk transfer of this many bytes over RFC 2684 LLC/SNAP (0 = off)")
	framed := flag.Bool("framed", false, "carry the a<->b fiber through the full SONET physical layer (framing, scrambling, HEC delineation) instead of the cell-granular shortcut; direct topology only")
	biterr := flag.Float64("biterr", 0, "with -framed: probability each frame suffers one random line bit error")
	flag.Parse()

	obs := obsOpts{
		TracePath:    *tracePath,
		TraceSample:  *traceSample,
		SamplePeriod: *samplePeriod,
		SamplePath:   *samplePath,
	}
	line := lineOpts{Framed: *framed, BitErrProb: *biterr}
	err := perCellUnused(*arch)
	if err == nil {
		err = run(*rate, *aalFlag, *arch, *size, *wl, *duration, *loss, *window, *seed, *rxEngines, *interleave, *dumpN, *metricsPath, *stats, *contract, *police, *epd, *abr, *kill, *restore, *rtimeout, *tcpBytes, line, obs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "atmsim:", err)
		os.Exit(1)
	}
}

// perCellUnused refuses, under -arch percell, a flag runPerCell ignores: it
// sends fixed -size SDUs one at a time to a host-SAR board, which has no
// engines, and dumps no cells. A flag given at all counts, even at its
// default value, since one SDU stays in flight whatever -window says.
func perCellUnused(arch string) (err error) {
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "workload", "window", "dump", "interleave", "rxengines":
			if arch == "percell" && err == nil {
				err = fmt.Errorf("-%s is not supported with -arch percell", f.Name)
			}
		}
	})
	return err
}

// obsOpts bundles the observability flags: flight-recorder trace export and
// the periodic telemetry sampler.
type obsOpts struct {
	TracePath    string
	TraceSample  int
	SamplePeriod time.Duration
	SamplePath   string
}

// lineOpts bundles the physical-layer flags: SONET framing on the a<->b
// fiber and line bit errors.
type lineOpts struct {
	Framed     bool
	BitErrProb float64
}

func run(rate int, aalFlag, arch string, size int, wl string, duration time.Duration,
	loss float64, window int, seed uint64, rxEngines int, interleave bool, dumpN int,
	metricsPath string, stats bool, contractSpec string, police bool, epd int, abr bool,
	kill, restore, rtimeout time.Duration, tcpBytes int, line lineOpts, obs obsOpts) error {
	deadline := sim.Time(duration.Nanoseconds())

	payloadRate := units.STS3cPayload
	if rate == 622 {
		payloadRate = units.STS12cPayload
	} else if rate != 155 {
		return fmt.Errorf("unknown rate %d (use 155 or 622)", rate)
	}
	aalType := aal.AAL5
	if aalFlag == "3/4" || aalFlag == "34" {
		aalType = aal.AAL34
	} else if aalFlag != "5" {
		return fmt.Errorf("unknown AAL %q (use 5 or 3/4)", aalFlag)
	}
	// The fixed, bursty and cbr workloads, and the per-cell loop, send
	// -size-byte SDUs.
	if (wl != "bimodal" || arch == "percell") && (size < 1 || size > aal.MaxSDU) {
		return fmt.Errorf("-size %d out of range (1 to %d bytes)", size, aal.MaxSDU)
	}
	var contract tm.TrafficContract
	haveContract := contractSpec != ""
	if haveContract {
		var err error
		if contract, err = parseContract(contractSpec, units.CellTime(payloadRate)); err != nil {
			return err
		}
	}
	if police && !haveContract {
		return fmt.Errorf("-police needs -contract to know what to enforce")
	}
	if abr && haveContract {
		return fmt.Errorf("-abr derives its own ABR contract; drop -contract")
	}
	// -police, -epd and -abr each put a switch between a and b.
	viaSwitch := police || epd > 0 || abr
	if line.Framed {
		if viaSwitch {
			return fmt.Errorf("-framed needs the direct a<->b topology (switch ports are cell-granular)")
		}
		if loss != 0 {
			return fmt.Errorf("-loss is cell-granular; on the SONET path use -biterr")
		}
		if dumpN > 0 {
			return fmt.Errorf("-dump taps the cell-granular fiber; not available with -framed")
		}
	} else if line.BitErrProb != 0 {
		return fmt.Errorf("-biterr needs -framed")
	}

	coreArch, ok := map[string]core.Arch{
		"engine": core.Programmable, "hardwired": core.Hardwired, "percell": core.PerCell,
	}[arch]
	if !ok {
		return fmt.Errorf("unknown arch %q", arch)
	}
	if coreArch == core.PerCell {
		if metricsPath != "" || stats {
			return fmt.Errorf("-metrics/-stats are not supported with -arch percell")
		}
		if haveContract || police || epd > 0 || abr {
			return fmt.Errorf("-contract/-police/-epd/-abr are not supported with -arch percell")
		}
		if kill > 0 || rtimeout > 0 {
			return fmt.Errorf("-kill/-rtimeout are not supported with -arch percell")
		}
		if obs.TracePath != "" || obs.SamplePeriod > 0 {
			return fmt.Errorf("-trace/-sample are not supported with -arch percell")
		}
		if tcpBytes > 0 {
			return fmt.Errorf("-tcp is not supported with -arch percell")
		}
		if line.Framed {
			return fmt.Errorf("-framed is not supported with -arch percell")
		}
	}

	// The whole topology is one declarative spec: two stations, optionally a
	// policing/discarding switch between them, and a single VCC end to end.
	// Both stations record into the network's one registry; instrument names
	// carry the station name ("a.nic.tx.cells"), per-VC rows are shared so
	// one row shows a connection end to end.
	opts := core.Options{
		Rate:              payloadRate,
		AAL34:             aalType == aal.AAL34,
		RxEngines:         rxEngines,
		InterleaveVCs:     interleave,
		Arch:              coreArch,
		ReassemblyTimeout: sim.Duration(rtimeout.Nanoseconds()),
	}
	spec := core.NetworkSpec{
		Endpoints: []core.EndpointSpec{
			{Name: "a", Options: opts},
			{Name: "b", Options: opts},
		},
		VCCs: []core.VCCSpec{{
			Name: "ab", From: "a", To: "b", VC: stdVC(),
			Contract: contract, Shape: haveContract,
			// TCP needs the ACK path back from b to a; ABR needs it for the
			// backward RM cells.
			Duplex: tcpBytes > 0 || abr,
		}},
	}
	// EFCI marks above this queue depth on the ABR bottleneck port.
	const abrEFCI = 32
	if abr {
		spec.VCCs[0].ABR = &tm.ABRParams{PCR: units.CellRate(payloadRate)}
	}
	if obs.TracePath != "" {
		// 1M events ≈ 40 MB: enough for tens of thousands of cell
		// journeys; wraparound keeps the most recent window and the
		// export notes the truncation.
		spec.TraceCapacity = 1 << 20
	}
	if viaSwitch {
		// a -> fiber -> switch -> b: the switch polices a's cells at its
		// ingress and/or runs early packet discard on its output queue.
		// The port always drains at STS-3c: with matched rates the queue
		// never builds, so a 622 Mb/s sender into the 155 Mb/s port is how
		// to congest it.
		sw := core.SwitchSpec{Name: "sw", Ports: 2, Rate: units.STS3cPayload, QueueDepth: 64}
		if abr {
			sw.EFCIThreshold = abrEFCI
			sw.ERICA = &netsim.ERICAConfig{} // defaults: 0.9 target, 500 µs interval
		}
		spec.Switches = []core.SwitchSpec{sw}
		spec.Links = []core.LinkSpec{
			{Name: "a-sw", A: core.NodeRef{Node: "a"}, B: core.NodeRef{Node: "sw", Port: 0},
				Delay: 10_000, LossProb: loss, Seed: seed},
			{Name: "sw-b", A: core.NodeRef{Node: "sw", Port: 1}, B: core.NodeRef{Node: "b"},
				Seed: seed + 1000},
		}
	} else {
		spec.Links = []core.LinkSpec{
			{Name: "ab", A: core.NodeRef{Node: "a"}, B: core.NodeRef{Node: "b"},
				Delay: 10_000, LossProb: loss, Seed: seed,
				Framed: line.Framed, BitErrProb: line.BitErrProb},
		}
	}
	net, err := core.NewNetwork(spec)
	if err != nil {
		return err
	}
	if coreArch == core.PerCell {
		return runPerCell(net, payloadRate, aalType, size, deadline)
	}
	k, reg, rec := net.Kernel(), net.Metrics(), net.Recorder()
	rec.SampleCells(obs.TraceSample)
	a, b := net.Endpoint("a"), net.Endpoint("b")
	vcc := net.VCC("ab")
	var capture *trace.Capture
	if dumpN > 0 {
		// Record a's cells as they enter the first fiber (a->b or a->sw).
		capture = trace.New(k)
		capture.Limit = dumpN
		first := net.Link(spec.Links[0].Name)
		a.Interface().AttachSink(atm.SinkFunc(capture.Tap(first.Fwd.Send)))
	}
	var sampler *trace.Sampler
	if obs.SamplePeriod > 0 {
		sampler = trace.NewSampler(k, reg, sim.Duration(obs.SamplePeriod.Nanoseconds()))
		sampler.Start(deadline)
	}
	var sw *netsim.Switch
	var pol *tm.Policer
	if viaSwitch {
		sw = net.Switch("sw")
		if police {
			pol = tm.NewPolicer(contract)
			pol.TagSCR = true
			hop := vcc.Hops[0]
			sw.SetPolicer(hop.InPort, hop.InVC, pol)
		}
		if epd > 0 {
			efci := 0
			if abr {
				efci = abrEFCI // keep the spec's EFCI marking alongside EPD
			}
			sw.SetThresholds(vcc.Hops[0].OutPort, 0, epd, efci)
		}
	}

	// Fault plane: alarm transitions print as they reach each host, and the
	// a->b fiber (its last hop, when a switch is in the path) can be cut and
	// repaired on schedule.
	if kill > 0 || rtimeout > 0 {
		onAlarm := func(who string) func(nic.AlarmEvent) {
			return func(ev nic.AlarmEvent) {
				fmt.Printf("t=%-12v %s: %v\n", ev.At, who, ev)
			}
		}
		a.OnAlarm(onAlarm("a"))
		b.OnAlarm(onAlarm("b"))
	}
	if kill > 0 {
		linkName := "ab"
		if viaSwitch {
			linkName = "sw-b"
		}
		lk := net.Link(linkName)
		failFn, restoreFn := lk.Fwd.Fail, lk.Fwd.Restore
		if lk.Framed != nil {
			failFn, restoreFn = lk.Framed.AtoB.Fail, lk.Framed.AtoB.Restore
		}
		k.At(sim.Time(kill.Nanoseconds()), func() {
			fmt.Printf("t=%-12v fiber %s cut\n", k.Now(), linkName)
			failFn()
		})
		if restore > 0 {
			k.At(sim.Time(restore.Nanoseconds()), func() {
				fmt.Printf("t=%-12v fiber %s restored\n", k.Now(), linkName)
				restoreFn()
			})
		}
	}

	var gen workload.Generator
	switch wl {
	case "fixed":
		gen = &workload.Fixed{Size: size}
	case "bimodal":
		gen = workload.NewBimodalIP(seed, 200*sim.Microsecond)
	case "bursty":
		gen = workload.NewOnOff(seed, size, 500*sim.Microsecond, 2*sim.Millisecond, 50*sim.Microsecond)
	case "cbr":
		gen = &workload.CBR{FrameSize: size, Period: sim.Duration(duration.Nanoseconds() / 100)}
	default:
		return fmt.Errorf("unknown workload %q", wl)
	}

	sent := 0
	var flow *tcp.Flow
	if tcpBytes > 0 {
		// A Reno source at a, sink at b: IP datagrams ride the VCC under
		// RFC 2684 LLC/SNAP, ACKs return on the duplex reverse path. The
		// flow's cwnd/ssthresh gauges land in the interfaces' registry, so
		// -sample captures the congestion window trace.
		stackA := ip.NewStack(a.Interface(), ip.LLCSnap, ip.Addr{10, 0, 0, 1})
		stackB := ip.NewStack(b.Interface(), ip.LLCSnap, ip.Addr{10, 0, 0, 2})
		flow = tcp.NewFlow(k, "ab", stackA, vcc.SourceVC, stackB, vcc.DestVC, tcp.Config{})
		flow.Start(uint64(tcpBytes), nil)
	} else if wl == "fixed" {
		var send func()
		send = func() {
			if k.Now() > deadline {
				return
			}
			sz, _ := gen.Next()
			if a.Send(vcc.SourceVC, make([]byte, sz), send) == nil {
				sent++
			}
		}
		for i := 0; i < window; i++ {
			send()
		}
	} else {
		var tick func()
		tick = func() {
			if k.Now() > deadline {
				return
			}
			sz, gap := gen.Next()
			if a.Send(vcc.SourceVC, make([]byte, sz), nil) == nil {
				sent++
			}
			k.After(gap, tick)
		}
		tick()
	}

	k.RunUntil(deadline)
	// Snapshot at the deadline so the drain phase neither dilutes the
	// utilizations nor inflates the delivered-within-window goodput.
	utilA, utilB := a.Host().Utilization(), b.Host().Utilization()
	txU, rxU := a.Interface().TxEngine().Utilization(), b.Interface().RxEngine().Utilization()
	st := b.Stats()
	var tcpSt tcp.SenderStats
	var tcpDelivered uint64
	if flow != nil {
		tcpSt = flow.Sender.Stats()
		tcpDelivered = flow.Delivered()
		sent = int(tcpSt.Segments)
		flow.Stop()
	}
	// Drain in-flight work, unless the fiber ends the run dark: its alarms
	// then cycle forever, so the run stops at the deadline.
	if kill == 0 || restore > kill {
		k.Run()
	}
	wlName := gen.Name()
	if flow != nil {
		wlName = fmt.Sprintf("tcp %d bytes", tcpBytes)
	}
	phys := ""
	if line.Framed {
		phys = ", sonet-framed"
	}
	fmt.Printf("architecture      %s, %v, %s%s, workload %s\n", arch, payloadRate, aalType, phys, wlName)
	fmt.Printf("simulated time    %v\n", k.Now())
	fmt.Printf("packets sent      %d\n", sent)
	fmt.Printf("packets delivered %d  (%d bytes)\n", st.Rx.Packets, st.Rx.Bytes)
	fmt.Printf("goodput           %.2f Mb/s\n", units.ThroughputBps(int64(st.Rx.Bytes), deadline)/1e6)
	fmt.Printf("aal errors        %d   rx fifo drops %d   unknown-vc %d\n",
		st.Rx.AALErrors, st.Rx.FifoDrops, st.Rx.UnknownVC)
	fmt.Printf("host cpu          tx-side %.1f%%   rx-side %.1f%%   rx interrupts %d\n",
		100*utilA, 100*utilB, b.Host().Interrupts())
	fmt.Printf("engines           tx %.1f%%   rx %.1f%%\n", 100*txU, 100*rxU)
	fmt.Printf("adapter sram peak %d bytes\n", st.SRAMPeak)
	fmt.Printf("link a->b         sent %d cells\n", st.Rx.Cells)
	if flow != nil {
		fmt.Printf("tcp               delivered %d/%d bytes  goodput %.2f Mb/s  segments %d\n",
			tcpDelivered, tcpBytes,
			units.ThroughputBps(int64(tcpDelivered), deadline)/1e6, tcpSt.Segments)
		fmt.Printf("tcp sender        cwnd %d  srtt %v  retx %d (fast %d)  timeouts %d\n",
			flow.Sender.Cwnd(), flow.Sender.SRTT(),
			tcpSt.Retransmits, tcpSt.FastRetransmits, tcpSt.Timeouts)
	}
	if haveContract {
		fmt.Printf("contract          %v (shaping at a)\n", contract)
	}
	if abr {
		acr, _ := a.Interface().ACR(vcc.SourceVC)
		sws := sw.Stats()
		fmt.Printf("abr               acr %.0f c/s (pcr %.0f)  frm %d  turned %d  brm %d\n",
			acr, units.CellRate(payloadRate),
			reg.Counter("a.nic.abr.frm_tx").Value(),
			reg.Counter("b.nic.abr.turnaround").Value(),
			reg.Counter("a.nic.abr.brm_rx").Value())
		fmt.Printf("switch abr        efci marked %d  er stamped %d\n", sws.EFCIMarked, sws.ERStamped)
	}
	if pol != nil {
		ps := pol.Stats()
		fmt.Printf("policer           %d cells: %d conform, %d tagged, %d discarded\n",
			ps.Cells, ps.Conformed, ps.Tagged, ps.Discarded)
	}
	if kill > 0 || rtimeout > 0 {
		fmA, fmB := a.Interface().FMStats(), b.Interface().FMStats()
		fmt.Printf("fault mgmt        b: %d ais rx, %d rdi tx, %d alarm events; a: %d rdi rx; stale frames reclaimed %d\n",
			fmB.AISRx, fmB.RDITx, fmB.Events, fmA.RDIRx, st.Rx.Stale)
	}
	if sw != nil {
		sws := sw.Stats()
		fmt.Printf("switch            routed %d  dropped %d  epd %d frames/%d cells  ppd %d cells\n",
			sws.Routed, sws.Dropped, sws.EPDFrames, sws.EPDCells, sws.PPDCells)
	}
	if dumpN > 0 {
		fmt.Println("\nfirst cells on the a->b fiber:")
		if err := capture.Dump(os.Stdout); err != nil {
			return err
		}
		sum := capture.Summary()
		for _, vs := range sum.PerVC {
			fmt.Printf("vc %v: %d cells, %d frames, mean gap %v\n",
				vs.VC, vs.Cells, vs.Frames, vs.MeanGap)
		}
		if sum.Overflowed > 0 {
			fmt.Printf("capture truncated: %d stored, %d further matches dropped\n",
				sum.Stored, sum.Overflowed)
		}
	}
	snap := reg.Snapshot()
	if stats {
		fmt.Println()
		if err := snap.WriteText(os.Stdout); err != nil {
			return err
		}
	}
	if metricsPath != "" {
		data, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if metricsPath == "-" {
			_, err = os.Stdout.Write(data)
		} else {
			err = os.WriteFile(metricsPath, data, 0o644)
		}
		if err != nil {
			return err
		}
	}
	if rec != nil {
		fmt.Println()
		if err := rec.WriteBreakdown(os.Stdout); err != nil {
			return err
		}
		if err := writeTo(obs.TracePath, rec.WriteTraceJSON); err != nil {
			return err
		}
		if obs.TracePath != "-" {
			fmt.Printf("\ntrace: %d events (%d evicted) -> %s\n", rec.Len(), rec.Evicted(), obs.TracePath)
		}
	}
	if sampler != nil {
		write := sampler.WriteCSV
		if strings.HasSuffix(obs.SamplePath, ".json") {
			write = sampler.WriteJSON
		}
		if err := writeTo(obs.SamplePath, write); err != nil {
			return err
		}
		if obs.SamplePath != "-" {
			fmt.Printf("%s -> %s\n", sampler, obs.SamplePath)
		}
	}
	return nil
}

// writeTo streams fn's output to a file, or to stdout for "-".
func writeTo(path string, fn func(io.Writer) error) error {
	if path == "-" {
		return fn(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runPerCell drives the per-cell pair with one SDU in flight at a time and
// prints the receive host's side of the story.
func runPerCell(net *core.Network, rate units.BitRate, aalType aal.Type, size int, deadline sim.Time) error {
	k, a, b := net.Kernel(), net.Endpoint("a"), net.Endpoint("b")
	vc := net.VCC("ab").SourceVC
	sent := 0
	var send func()
	send = func() {
		if k.Now() > deadline {
			return
		}
		if a.Send(vc, make([]byte, size), send) == nil {
			sent++
		}
	}
	send()
	k.RunUntil(deadline)
	utilB := b.Host().Utilization()
	st := b.Stats()
	k.Run()
	fmt.Printf("architecture      percell (host SAR), %v, %s\n", rate, aalType)
	fmt.Printf("packets sent      %d\n", sent)
	fmt.Printf("packets delivered %d  (%d bytes)\n", st.Rx.Packets, st.Rx.Bytes)
	fmt.Printf("goodput           %.2f Mb/s\n", units.ThroughputBps(int64(st.Rx.Bytes), deadline)/1e6)
	fmt.Printf("aal errors        %d   rx drops %d\n", st.Rx.AALErrors, st.Rx.FifoDrops)
	fmt.Printf("rx host cpu       %.1f%%   interrupts %d\n", 100*utilB, b.Host().Interrupts())
	return nil
}

// parseContract turns "pcr" (CBR) or "pcr,scr,mbs" (rt-VBR) into a traffic
// contract. CDVT is fixed at a few cell times — enough slack for the cell
// clock quantization the TX FIFO adds downstream of the shaper.
func parseContract(spec string, cellTime sim.Duration) (tm.TrafficContract, error) {
	parts := strings.Split(spec, ",")
	nums := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return tm.TrafficContract{}, fmt.Errorf("bad -contract %q: %v", spec, err)
		}
		nums[i] = v
	}
	cdvt := 8 * cellTime
	var c tm.TrafficContract
	switch len(nums) {
	case 1:
		c = tm.CBRContract(nums[0], cdvt)
	case 3:
		c = tm.VBRContract(nums[0], nums[1], int(nums[2]), cdvt)
	default:
		return c, fmt.Errorf("bad -contract %q: want \"pcr\" or \"pcr,scr,mbs\"", spec)
	}
	return c, c.Validate()
}

func stdVC() atm.VC { return atm.VC{VCI: 100} }
