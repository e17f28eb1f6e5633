package units

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// The STS-3c and STS-12c line rates, whose cell times are the widely quoted
// "2.7 µs at 155 Mb/s" and "0.68 µs at 622 Mb/s".
const (
	sts3cLine  BitRate = 155_520_000
	sts12cLine BitRate = 622_080_000
)

func TestCellTimeSTS3cLine(t *testing.T) {
	// 53 bytes at 155.52 Mb/s = 424 bits / 155.52e6 = 2726.3 ns.
	got := CellTime(sts3cLine)
	if got != 2726 {
		t.Fatalf("CellTime(155.52 Mb/s) = %v ns, want 2726", int64(got))
	}
}

func TestCellTimeSTS3cPayload(t *testing.T) {
	// 424 bits / 149.76e6 = 2831.2 ns.
	got := CellTime(STS3cPayload)
	if got != 2831 {
		t.Fatalf("CellTime(STS3cPayload) = %v ns, want 2831", int64(got))
	}
}

func TestCellTimeSTS12c(t *testing.T) {
	// 424 bits / 622.08e6 = 681.6 ns.
	if got := CellTime(sts12cLine); got != 682 {
		t.Fatalf("CellTime(622.08 Mb/s) = %v ns, want 682", int64(got))
	}
	// 424 / 599.04e6 = 707.8 ns.
	if got := CellTime(STS12cPayload); got != 708 {
		t.Fatalf("CellTime(STS12cPayload) = %v ns, want 708", int64(got))
	}
}

func TestTimePerBytesZero(t *testing.T) {
	if got := TimePerBytes(sts3cLine, 0); got != 0 {
		t.Fatalf("TimePerBytes(_, 0) = %v, want 0", got)
	}
}

func TestTimePerBytesLinear(t *testing.T) {
	one := TimePerBytes(Mbps, 1)  // 8 bits at 1e6 b/s = 8000 ns
	ten := TimePerBytes(Mbps, 10) // 80000 ns
	if one != 8000 {
		t.Fatalf("1 byte at 1Mb/s = %v ns, want 8000", int64(one))
	}
	if ten != 80000 {
		t.Fatalf("10 bytes at 1Mb/s = %v ns, want 80000", int64(ten))
	}
}

func TestTimePerBytesPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero rate":      func() { TimePerBytes(0, 1) },
		"negative rate":  func() { TimePerBytes(-1, 1) },
		"negative bytes": func() { TimePerBytes(Mbps, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestCellRate(t *testing.T) {
	// STS-3c payload: 149.76e6/424 = 353207.5 cells/s.
	got := CellRate(STS3cPayload)
	if got < 353207 || got > 353208 {
		t.Fatalf("CellRate(STS3cPayload) = %v, want ~353207.5", got)
	}
}

func TestCellsForPayload(t *testing.T) {
	cases := []struct {
		n, per, want int
	}{
		{0, 48, 0},
		{1, 48, 1},
		{48, 48, 1},
		{49, 48, 2},
		{9180, 48, 192}, // IP MTU over AAL5 SAR payload, before trailer
		{9180, 44, 209}, // same under AAL3/4
		{65535, 48, 1366},
		{-5, 48, 0},
	}
	for _, c := range cases {
		if got := CellsForPayload(c.n, c.per); got != c.want {
			t.Errorf("CellsForPayload(%d,%d) = %d, want %d", c.n, c.per, got, c.want)
		}
	}
}

func TestCellsForPayloadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CellsForPayload with zero per-cell did not panic")
		}
	}()
	CellsForPayload(10, 0)
}

func TestThroughputBps(t *testing.T) {
	// 1e6 bytes over 1 simulated second = 8e6 b/s.
	got := ThroughputBps(1_000_000, sim.Second)
	if got != 8_000_000 {
		t.Fatalf("ThroughputBps = %v, want 8e6", got)
	}
	if ThroughputBps(100, 0) != 0 {
		t.Fatal("ThroughputBps with zero duration should be 0")
	}
}

func TestBitRateString(t *testing.T) {
	cases := []struct {
		r    BitRate
		want string
	}{
		{sts3cLine, "155.52Mb/s"},
		{sts12cLine, "622.08Mb/s"},
		{2 * Gbps, "2.000Gb/s"},
		{1500, "1.5Kb/s"},
		{12, "12b/s"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.r), got, c.want)
		}
	}
}

// Property: TimePerBytes is monotone non-decreasing in n and additive within
// rounding (time(a+b) within 1ns of time(a)+time(b)).
func TestPropertyTimePerBytesMonotoneAdditive(t *testing.T) {
	f := func(a, b uint16) bool {
		ta := TimePerBytes(sts3cLine, int(a))
		tb := TimePerBytes(sts3cLine, int(b))
		tab := TimePerBytes(sts3cLine, int(a)+int(b))
		if tab < ta || tab < tb {
			return false
		}
		diff := tab - (ta + tb)
		if diff < 0 {
			diff = -diff
		}
		return diff <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: CellsForPayload(n) * perCell always covers n.
func TestPropertyCellsCoverPayload(t *testing.T) {
	f := func(n uint16, per uint8) bool {
		p := int(per%64) + 1
		c := CellsForPayload(int(n), p)
		return c*p >= int(n) && (c == 0 || (c-1)*p < int(n))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
