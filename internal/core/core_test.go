package core

import (
	"bytes"
	"testing"

	"repro/internal/bufmgr"
	"repro/internal/nic"
	"repro/internal/sim"
	"repro/internal/units"
)

func TestTestbedQuickPath(t *testing.T) {
	tb, err := NewTestbed(Options{}, LinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	vc := VC{VCI: 32}
	if err := tb.OpenVC(vc); err != nil {
		t.Fatal(err)
	}
	var got []Packet
	tb.B.OnReceive(func(p Packet) { got = append(got, p) })
	msg := []byte("hello, 1991")
	if err := tb.A.Send(vc, msg, nil); err != nil {
		t.Fatal(err)
	}
	tb.Run()
	if len(got) != 1 || !bytes.Equal(got[0].Data, msg) {
		t.Fatalf("got %v", got)
	}
	if got[0].VC != vc {
		t.Fatalf("VC %v", got[0].VC)
	}
	if got[0].At <= 0 {
		t.Fatal("delivery timestamp missing")
	}
}

func TestTestbedBothDirections(t *testing.T) {
	tb, _ := NewTestbed(Options{}, LinkOptions{})
	vc := VC{VCI: 1}
	tb.OpenVC(vc)
	a2b, b2a := 0, 0
	tb.A.OnReceive(func(Packet) { b2a++ })
	tb.B.OnReceive(func(Packet) { a2b++ })
	tb.A.Send(vc, []byte{1}, nil)
	tb.B.Send(vc, []byte{2}, nil)
	tb.Run()
	if a2b != 1 || b2a != 1 {
		t.Fatalf("a2b=%d b2a=%d", a2b, b2a)
	}
}

func TestOptionsPlumbing(t *testing.T) {
	tb, err := NewTestbed(Options{
		Rate:        Rate622,
		AAL34:       true,
		EngineMHz:   66,
		TxFifoCells: 64,
		RxFifoCells: 128,
		Lookup:      nic.LookupHash,
		Buffers:     bufmgr.Contig,
		AdapterSRAM: 1 << 20,
		HostMIPS:    200,
	}, LinkOptions{DistanceKm: 10})
	if err != nil {
		t.Fatal(err)
	}
	cfg := tb.A.Interface().Config()
	if cfg.PayloadRate != units.STS12cPayload {
		t.Errorf("rate = %v", cfg.PayloadRate)
	}
	if cfg.AAL.String() != "AAL3/4" {
		t.Errorf("aal = %v", cfg.AAL)
	}
	if cfg.Engine.ClockHz != 66_000_000 {
		t.Errorf("clock = %d", cfg.Engine.ClockHz)
	}
	if cfg.TxFifoDepth != 64 || cfg.RxFifoDepth != 128 {
		t.Errorf("fifos = %d/%d", cfg.TxFifoDepth, cfg.RxFifoDepth)
	}
	if cfg.Lookup != nic.LookupHash {
		t.Errorf("lookup = %v", cfg.Lookup)
	}
	if cfg.BufOrg != bufmgr.Contig {
		t.Errorf("buforg = %v", cfg.BufOrg)
	}
	if cfg.AdapterSRAM != 1<<20 {
		t.Errorf("sram = %d", cfg.AdapterSRAM)
	}
	if got := tb.A.Host().Config().InstrRate; got != 200_000_000 {
		t.Errorf("host instr rate = %d", got)
	}
	tbDef, err := NewTestbed(Options{}, LinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := tbDef.A.Host().Config().InstrRate; got != 25_000_000 {
		t.Errorf("default host instr rate = %d", got)
	}
}

func TestLinkedBuffersOption(t *testing.T) {
	// bufmgr.Linked must survive the options plumbing even though the
	// board default is Paged: the zero Organization is a distinct
	// DefaultOrg sentinel, so an explicit Linked is not mistaken for
	// "unset" anywhere down the stack.
	tb, err := NewTestbed(Options{Buffers: bufmgr.Linked}, LinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := tb.A.Interface().Config().BufOrg; got != bufmgr.Linked {
		t.Fatalf("buforg = %v, want linked", got)
	}
	tbDef, err := NewTestbed(Options{}, LinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := tbDef.A.Interface().Config().BufOrg; got != bufmgr.Paged {
		t.Fatalf("default buforg = %v, want paged", got)
	}
}

func TestLinkLossOption(t *testing.T) {
	tb, _ := NewTestbed(Options{}, LinkOptions{CellLossProb: 0.05, Seed: 3})
	vc := VC{VCI: 2}
	tb.OpenVC(vc)
	delivered := 0
	tb.B.OnReceive(func(Packet) { delivered++ })
	payload := make([]byte, 4000)
	for i := 0; i < 30; i++ {
		tb.A.Send(vc, payload, nil)
	}
	tb.Run()
	st := tb.B.Stats()
	if st.Rx.AALErrors == 0 {
		t.Fatal("5% loss produced no AAL errors")
	}
	if delivered >= 30 {
		t.Fatal("all frames survived 5% cell loss on ~84-cell frames")
	}
}

func TestHardwiredOption(t *testing.T) {
	tb, err := NewTestbed(Options{Hardwired: true}, LinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tb.A.Interface().Config().Engine.ClockHz != 1_000_000_000 {
		t.Fatal("hardwired option did not replace engines")
	}
	vc := VC{VCI: 4}
	tb.OpenVC(vc)
	ok := false
	tb.B.OnReceive(func(Packet) { ok = true })
	tb.A.Send(vc, []byte{1, 2}, nil)
	tb.Run()
	if !ok {
		t.Fatal("hardwired testbed did not deliver")
	}
}

func TestGoodputAccessor(t *testing.T) {
	tb, _ := NewTestbed(Options{}, LinkOptions{})
	vc := VC{VCI: 5}
	tb.OpenVC(vc)
	tb.B.OnReceive(func(Packet) {})
	tb.A.Send(vc, make([]byte, 9180), nil)
	tb.Run()
	if g := tb.B.Goodput(); g <= 0 {
		t.Fatalf("goodput = %v", g)
	}
}

func TestRunFor(t *testing.T) {
	tb, _ := NewTestbed(Options{}, LinkOptions{})
	tb.RunFor(5 * sim.Millisecond)
	if tb.Now() != 5*sim.Millisecond {
		t.Fatalf("Now = %v", tb.Now())
	}
}

func TestPingLoopback(t *testing.T) {
	tb, _ := NewTestbed(Options{}, LinkOptions{})
	vc := VC{VCI: 6}
	tb.OpenVC(vc)
	var got uint32
	tb.A.OnPingReply(func(v VC, corr uint32) { got = corr })
	if err := tb.A.Ping(vc, 0xfeed); err != nil {
		t.Fatal(err)
	}
	tb.Run()
	if got != 0xfeed {
		t.Fatalf("ping reply correlation %#x", got)
	}
}

func TestPacingViaCore(t *testing.T) {
	tb, _ := NewTestbed(Options{}, LinkOptions{})
	vc := VC{VCI: 6}
	tb.OpenVC(vc)
	if err := tb.A.SetPeakCellRate(vc, 10_000); err != nil {
		t.Fatal(err)
	}
	done := sim.Time(0)
	tb.B.OnReceive(func(p Packet) { done = p.At })
	tb.A.Send(vc, make([]byte, 480), nil) // 11 cells at 100 µs spacing
	tb.Run()
	if done < sim.Time(10*100_000) {
		t.Fatalf("paced delivery at %v, expected >= 1 ms", done)
	}
}

func TestMultiEngineOptionViaCore(t *testing.T) {
	tb, err := NewTestbed(Options{RxEngines: 4, InterleaveVCs: true}, LinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tb.A.Interface().RxEngines()); got != 4 {
		t.Fatalf("engines = %d", got)
	}
	if !tb.A.Interface().Config().InterleaveVCs {
		t.Fatal("interleave not plumbed")
	}
}
