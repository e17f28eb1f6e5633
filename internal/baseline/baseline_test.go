package baseline

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/aal"
	"repro/internal/atm"
	"repro/internal/bus"
	"repro/internal/host"
	"repro/internal/nic"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/units"
)

func pkt(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*11 + 3)
	}
	return b
}

// hostSARRig wires a HostSAR sender to a HostSAR receiver.
type hostSARRig struct {
	k        *sim.Kernel
	tx, rx   *HostSAR
	hTx, hRx *host.Host
	received [][]byte
}

func newHostSARRig() *hostSARRig {
	k := sim.NewKernel()
	r := &hostSARRig{k: k}
	r.hTx = host.New(k, host.DefaultConfig())
	r.hRx = host.New(k, host.DefaultConfig())
	pool := atm.NewPool(0)
	sar := func(name string, h *host.Host) *HostSAR {
		a, err := NewHostSAR(k, nic.DefaultConfig(name), h, bus.New(k, bus.DefaultConfig()), pool)
		if err != nil {
			panic(err)
		}
		return a
	}
	r.tx = sar("tx", r.hTx)
	r.rx = sar("rx", r.hRx)
	link := phy.NewCellLink(k, 10_000, 1, r.rx, pool)
	r.tx.AttachSink(atm.SinkFunc(link.Send))
	r.rx.OnReceive(func(d nic.Delivered) { r.received = append(r.received, bytes.Clone(d.SDU)) })
	return r
}

func TestHostSAREndToEnd(t *testing.T) {
	// A short packet: the host-bound receiver keeps its 32-cell FIFO
	// backlog under control. (Long packets overflow it — that is the
	// architecture's failure mode and is tested separately.)
	r := newHostSARRig()
	vc := atm.VC{VCI: 5}
	r.rx.OpenVC(vc)
	if err := r.tx.Send(vc, pkt(1000), nil); err != nil {
		t.Fatal(err)
	}
	r.k.Run()
	if len(r.received) != 1 || !bytes.Equal(r.received[0], pkt(1000)) {
		t.Fatal("baseline end-to-end failed")
	}
}

func TestHostSARPerCellInterrupts(t *testing.T) {
	// Closed-loop short packets (no FIFO overflow): the receive host
	// must take at least one interrupt per cell.
	r := newHostSARRig()
	vc := atm.VC{VCI: 5}
	r.rx.OpenVC(vc)
	sent := 1
	r.rx.OnReceive(func(d nic.Delivered) {
		r.received = append(r.received, bytes.Clone(d.SDU))
		if sent < 5 {
			sent++
			r.tx.Send(d.VC, pkt(1000), nil)
		}
	})
	r.tx.Send(vc, pkt(1000), nil)
	r.k.Run()
	st := r.rx.Stats()
	if st.Rx.FifoDrops != 0 {
		t.Fatalf("unexpected drops in closed-loop run: %+v", st)
	}
	cells := st.Rx.Cells
	if got := r.hRx.Interrupts(); got < cells {
		t.Fatalf("receive host took %d interrupts for %d cells", got, cells)
	}
	if len(r.received) != 5 {
		t.Fatalf("delivered %d of 5", len(r.received))
	}
}

func TestHostSARHostBoundThroughput(t *testing.T) {
	// The baseline's receive host burns ~290+ instructions plus an
	// interrupt per cell: at 25 MIPS that is > 11.6 µs per 2.83 µs cell
	// slot — it cannot even run at 25% of line rate.
	r := newHostSARRig()
	vc := atm.VC{VCI: 5}
	r.rx.OpenVC(vc)
	deadline := sim.Time(20 * sim.Millisecond)
	var send func()
	send = func() {
		if r.k.Now() > deadline {
			return
		}
		r.tx.Send(vc, pkt(9180), send)
	}
	send()
	send()
	r.k.RunUntil(deadline + sim.Time(10*sim.Millisecond))
	gotBps := units.ThroughputBps(int64(r.rx.Stats().Rx.Bytes), r.k.Now())
	if gotBps > 40e6 {
		t.Fatalf("baseline goodput %.1f Mb/s implausibly high for a host-bound path", gotBps/1e6)
	}
	if r.rx.Stats().Rx.Packets == 0 && r.rx.Stats().Rx.FifoDrops == 0 {
		t.Fatal("baseline receiver made no progress at all")
	}
}

func TestHostSARRxOverflowUnderLoad(t *testing.T) {
	// Cells arrive every 2.83 µs but the host needs >10 µs per cell; the
	// 32-cell RX FIFO must overflow quickly.
	r := newHostSARRig()
	vc := atm.VC{VCI: 5}
	r.rx.OpenVC(vc)
	r.tx.Send(vc, pkt(9180), nil)
	r.k.Run()
	if r.rx.Stats().Rx.FifoDrops == 0 {
		t.Fatal("no RX drops despite host-bound receiver")
	}
}

func TestHostSARValidation(t *testing.T) {
	r := newHostSARRig()
	if err := r.tx.Send(atm.VC{VCI: 1}, nil, nil); !errors.Is(err, nic.ErrBadSDU) {
		t.Fatalf("err = %v", err)
	}
	if err := r.tx.Send(atm.VC{VCI: 1}, make([]byte, aal.MaxSDU+1), nil); !errors.Is(err, nic.ErrBadSDU) {
		t.Fatalf("err = %v", err)
	}
}

func TestHostSAROpenVCIdempotent(t *testing.T) {
	r := newHostSARRig()
	vc := atm.VC{VCI: 9}
	if err := r.rx.OpenVC(vc); err != nil {
		t.Fatal(err)
	}
	// A second open is refused and must not reset state or panic.
	if err := r.rx.OpenVC(vc); !errors.Is(err, nic.ErrVCExists) {
		t.Fatalf("second open: err = %v, want nic.ErrVCExists", err)
	}
	r.tx.Send(vc, pkt(100), nil)
	r.k.Run()
	if len(r.received) != 1 {
		t.Fatal("delivery broken after double open")
	}
}

func TestHardwiredRemovesEngineBottleneck(t *testing.T) {
	// Drive the RECEIVE side directly with line-rate single-cell frames
	// at STS-12c (no sender in the way). The programmable 25 MHz engine
	// cannot keep up and drops cells; the hardwired receiver keeps up
	// exactly.
	run := func(hardwired bool) (packets, drops uint64) {
		k := sim.NewKernel()
		h := host.New(k, host.DefaultConfig())
		b := bus.New(k, bus.DefaultConfig())
		cfg := nic.DefaultConfig("rx")
		cfg.PayloadRate = units.STS12cPayload
		var iface *nic.Interface
		var err error
		if hardwired {
			iface, err = NewHardwired(k, cfg, h, b, atm.NewPool(0))
		} else {
			iface, err = nic.New(k, cfg, h, b, atm.NewPool(0))
		}
		if err != nil {
			panic(err)
		}
		vc := atm.VC{VCI: 3}
		iface.OpenVC(vc)

		// Inject back-to-back single-cell AAL5 frames at the cell rate.
		seg := aal.NewSegmenter(aal.AAL5)
		cellTime := units.CellTime(units.STS12cPayload)
		const nCells = 4000
		for i := 0; i < nCells; i++ {
			i := i
			k.At(sim.Time(i)*cellTime, func() {
				cell := iface.Pool().Get()
				seg.Begin(pkt(40))
				pt, _, _ := seg.Next(&cell.Payload)
				cell.Header = atm.Header{Format: atm.UNI, VPI: vc.VPI, VCI: vc.VCI, PT: pt}
				iface.DeliverCell(cell)
			})
		}
		k.Run()
		st := iface.Stats()
		return st.Rx.Packets, st.Rx.FifoDrops
	}
	progPkts, progDrops := run(false)
	hardPkts, hardDrops := run(true)
	if progDrops == 0 {
		t.Fatalf("programmable engine kept up with STS-12c minimum frames (%d pkts) — cost model broken", progPkts)
	}
	if hardDrops != 0 {
		t.Fatalf("hardwired receiver dropped %d cells", hardDrops)
	}
	if hardPkts <= progPkts {
		t.Fatalf("hardwired %d packets <= programmable %d", hardPkts, progPkts)
	}
}
