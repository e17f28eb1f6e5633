package main

import (
	"errors"
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain lets a test run the command itself: the test binary started as
// "<binary> atmsim <flags>" is atmsim, so a case can check the exit status
// and stderr of a whole command line.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "atmsim" {
		os.Args = os.Args[1:]
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Smoke-test every architecture/workload combination the CLI exposes, at
// tiny simulated durations.
func TestRunCombinations(t *testing.T) {
	cases := []struct {
		name          string
		rate          int
		aal, arch, wl string
		size          int
		loss          float64
		rxEngines     int
		interleave    bool
	}{
		{"default", 155, "5", "engine", "fixed", 9180, 0, 1, false},
		{"aal34", 155, "3/4", "engine", "fixed", 4000, 0, 1, false},
		{"622", 622, "5", "engine", "fixed", 1024, 0, 1, false},
		{"hardwired", 155, "5", "hardwired", "fixed", 9180, 0, 1, false},
		{"percell", 155, "5", "percell", "fixed", 1000, 0, 1, false},
		{"bimodal", 155, "5", "engine", "bimodal", 0, 0, 1, false},
		{"bursty", 155, "5", "engine", "bursty", 2000, 0, 1, false},
		{"cbr", 155, "5", "engine", "cbr", 8000, 0, 1, false},
		{"lossy", 155, "5", "engine", "fixed", 4000, 1e-3, 1, false},
		{"multiengine", 622, "5", "engine", "fixed", 9180, 0, 3, true},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if err := run(c.rate, c.aal, c.arch, c.size, c.wl,
				3*time.Millisecond, c.loss, 2, 1, c.rxEngines, c.interleave, 0, "", false, "", false, 0, false, 0, 0, 0, 0, lineOpts{}, obsOpts{}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run(100, "5", "engine", 100, "fixed", time.Millisecond, 0, 1, 1, 1, false, 0, "", false, "", false, 0, false, 0, 0, 0, 0, lineOpts{}, obsOpts{}); err == nil {
		t.Fatal("bad rate accepted")
	}
	if err := run(155, "7", "engine", 100, "fixed", time.Millisecond, 0, 1, 1, 1, false, 0, "", false, "", false, 0, false, 0, 0, 0, 0, lineOpts{}, obsOpts{}); err == nil {
		t.Fatal("bad AAL accepted")
	}
	if err := run(155, "5", "warp", 100, "fixed", time.Millisecond, 0, 1, 1, 1, false, 0, "", false, "", false, 0, false, 0, 0, 0, 0, lineOpts{}, obsOpts{}); err == nil {
		t.Fatal("bad arch accepted")
	}
	if err := run(155, "5", "engine", 100, "telepathy", time.Millisecond, 0, 1, 1, 1, false, 0, "", false, "", false, 0, false, 0, 0, 0, 0, lineOpts{}, obsOpts{}); err == nil {
		t.Fatal("bad workload accepted")
	}
	if err := run(155, "5", "percell", 100, "fixed", time.Millisecond, 0, 1, 1, 1, false, 0, "x.json", false, "", false, 0, false, 0, 0, 0, 0, lineOpts{}, obsOpts{}); err == nil {
		t.Fatal("percell + -metrics accepted")
	}
	// Every workload that sends -size-byte SDUs refuses a size no SDU can
	// have, on every architecture, instead of reporting sends Send refused.
	for _, arch := range []string{"engine", "hardwired", "percell"} {
		for _, wl := range []string{"fixed", "bursty", "cbr"} {
			for _, size := range []int{0, 70000} {
				if err := run(155, "5", arch, size, wl, time.Millisecond, 0, 1, 1, 1, false, 0, "", false, "", false, 0, false, 0, 0, 0, 0, lineOpts{}, obsOpts{}); err == nil {
					t.Fatalf("-arch %s -workload %s -size %d accepted", arch, wl, size)
				}
			}
		}
	}
}

// The per-cell loop sends fixed -size SDUs one at a time, so each flag that
// would steer anything else is an error under -arch percell when it is given
// at all: -window 4 is its default, yet the loop keeps one SDU in flight.
func TestRunPerCellRejectsIgnoredFlags(t *testing.T) {
	for _, given := range [][]string{
		{"-workload", "bimodal"},
		{"-window", "4"},
		{"-dump", "3"},
		{"-interleave"},
		{"-rxengines", "4"},
	} {
		t.Run(given[0][1:], func(t *testing.T) {
			args := append([]string{"atmsim", "-arch", "percell", "-size", "1000", "-duration", "1ms"}, given...)
			out, err := exec.Command(os.Args[0], args...).CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Fatalf("%s: %v, want exit status 1; output:\n%s", strings.Join(args, " "), err, out)
			}
			if want := "atmsim: " + given[0] + " is not supported with -arch percell\n"; string(out) != want {
				t.Fatalf("%s printed %q, want %q", strings.Join(args, " "), out, want)
			}
		})
	}
}

// captureStdout runs fn with os.Stdout redirected into a pipe and returns
// what it printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	printed := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		printed <- b
	}()
	runErr := fn()
	os.Stdout = saved
	w.Close()
	out := <-printed
	r.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	return string(out)
}

// -dump N prints the first N cells a puts on its first fiber, then the
// truncation notice. a's cell clock does not depend on what lies behind
// that fiber, so the direct topology and the -epd switch topology print the
// same section; a tap on any other link half would print other cells, other
// times, or none. Through the switch, every one of the 319 cells the
// capture saw must also have been routed.
func TestRunDumpPrintsFirstCells(t *testing.T) {
	const want = `first cells on the a->b fiber:
     0     51.119us vc=0/100 pt=000 clp=false  00000640ec00000000000000
     1     53.950us vc=0/100 pt=000 clp=false  00000640ec00000000000000
     2     56.781us vc=0/100 pt=000 clp=false  00000640ec00000000000000
... 316 further matches not stored (limit)
vc 0/100: 3 cells, 0 frames, mean gap 2.831us
capture truncated: 3 stored, 316 further matches dropped
`
	for _, c := range []struct {
		name string
		epd  int
	}{{"direct", 0}, {"epd switch", 32}} {
		t.Run(c.name, func(t *testing.T) {
			out := captureStdout(t, func() error {
				return run(155, "5", "engine", 500, "fixed", 2*time.Millisecond, 0, 1, 1, 1, false, 3, "", false, "", false, c.epd, false, 0, 0, 0, 0, lineOpts{}, obsOpts{})
			})
			if routed := strings.Contains(out, "\nswitch            routed 319  dropped 0 "); routed != (c.epd > 0) {
				t.Fatalf("319 cells through the switch = %v, want %v:\n%s", routed, c.epd > 0, out)
			}
			i := strings.Index(out, "first cells on the a->b fiber:")
			if i < 0 {
				t.Fatalf("no cell dump:\n%s", out)
			}
			if got := out[i:]; got != want {
				t.Fatalf("dump section:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

func TestRunWithMetrics(t *testing.T) {
	path := t.TempDir() + "/metrics.json"
	if err := run(155, "5", "engine", 9180, "fixed", 3*time.Millisecond, 0, 2, 1, 1, false, 0, path, true, "", false, 0, false, 0, 0, 0, 0, lineOpts{}, obsOpts{}); err != nil {
		t.Fatal(err)
	}
	// The snapshot must exist and be non-trivial; its shape is covered by
	// the metrics package tests.
	fi, err := os.Stat(path)
	if err != nil || fi.Size() < 1000 {
		t.Fatalf("snapshot file: %+v, err %v", fi, err)
	}
}

func TestRunTrafficManagement(t *testing.T) {
	// Shaped + policed: the contract round-trips through the switch.
	if err := run(155, "5", "engine", 4000, "fixed", 3*time.Millisecond,
		0, 2, 1, 1, false, 0, "", false, "150000,50000,32", true, 0, false, 0, 0, 0, 0, lineOpts{}, obsOpts{}); err != nil {
		t.Fatal(err)
	}
	// CBR one-field contract with EPD on the switch.
	if err := run(155, "5", "engine", 1000, "fixed", 2*time.Millisecond,
		0, 2, 1, 1, false, 0, "", false, "100000", false, 48, false, 0, 0, 0, 0, lineOpts{}, obsOpts{}); err != nil {
		t.Fatal(err)
	}
	// EPD alone still routes through the switch.
	if err := run(155, "5", "engine", 1000, "fixed", 2*time.Millisecond,
		0, 2, 1, 1, false, 0, "", false, "", false, 32, false, 0, 0, 0, 0, lineOpts{}, obsOpts{}); err != nil {
		t.Fatal(err)
	}
	// -police without -contract is refused.
	if err := run(155, "5", "engine", 1000, "fixed", time.Millisecond,
		0, 1, 1, 1, false, 0, "", false, "", true, 0, false, 0, 0, 0, 0, lineOpts{}, obsOpts{}); err == nil {
		t.Fatal("police without contract accepted")
	}
	// Malformed contracts are refused.
	for _, bad := range []string{"abc", "1,2", "150000,50000,32,9", "-5"} {
		if err := run(155, "5", "engine", 1000, "fixed", time.Millisecond,
			0, 1, 1, 1, false, 0, "", false, bad, false, 0, false, 0, 0, 0, 0, lineOpts{}, obsOpts{}); err == nil {
			t.Fatalf("contract %q accepted", bad)
		}
	}
	// percell rejects the TM flags.
	if err := run(155, "5", "percell", 1000, "fixed", time.Millisecond,
		0, 1, 1, 1, false, 0, "", false, "100000", false, 0, false, 0, 0, 0, 0, lineOpts{}, obsOpts{}); err == nil {
		t.Fatal("percell + -contract accepted")
	}
}

func TestRunWithObservability(t *testing.T) {
	dir := t.TempDir()
	obs := obsOpts{
		TracePath:    dir + "/trace.json",
		TraceSample:  1,
		SamplePeriod: 100 * time.Microsecond,
		SamplePath:   dir + "/samples.csv",
	}
	if err := run(155, "5", "engine", 9180, "fixed", 2*time.Millisecond,
		0, 2, 1, 1, false, 0, "", false, "", false, 0, false, 0, 0, 0, 0, lineOpts{}, obs); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{obs.TracePath, obs.SamplePath} {
		fi, err := os.Stat(p)
		if err != nil || fi.Size() == 0 {
			t.Fatalf("observability output %s: %+v, err %v", p, fi, err)
		}
	}
	// percell has no recorder hooks or registry to sample.
	if err := run(155, "5", "percell", 1000, "fixed", time.Millisecond,
		0, 1, 1, 1, false, 0, "", false, "", false, 0, false, 0, 0, 0, 0,
		lineOpts{}, obsOpts{TracePath: dir + "/t2.json", TraceSample: 1}); err == nil {
		t.Fatal("percell + -trace accepted")
	}
}

func TestRunFaultInjection(t *testing.T) {
	// Cut and repair the fiber mid-run with the reassembly GC on.
	if err := run(155, "5", "engine", 9180, "fixed", 5*time.Millisecond,
		0, 2, 1, 1, false, 0, "", false, "", false, 0, false,
		time.Millisecond, 2*time.Millisecond, 500*time.Microsecond, 0, lineOpts{}, obsOpts{}); err != nil {
		t.Fatal(err)
	}
	// With a switch in the path, the cut moves to its egress link.
	if err := run(155, "5", "engine", 1000, "fixed", 3*time.Millisecond,
		0, 2, 1, 1, false, 0, "", false, "", false, 32, false,
		time.Millisecond, 2*time.Millisecond, 0, 0, lineOpts{}, obsOpts{}); err != nil {
		t.Fatal(err)
	}
	// -abr routes through the ERICA switch too, so the cut lands there. The
	// fiber stays dark, so the run ends at the deadline instead of draining.
	if err := run(155, "5", "engine", 1000, "fixed", 3*time.Millisecond,
		0, 2, 1, 1, false, 0, "", false, "", false, 0, true,
		2*time.Millisecond, 0, 0, 0, lineOpts{}, obsOpts{}); err != nil {
		t.Fatal(err)
	}
	// percell has no fault plane.
	if err := run(155, "5", "percell", 1000, "fixed", time.Millisecond,
		0, 1, 1, 1, false, 0, "", false, "", false, 0, false,
		time.Millisecond, 0, 0, 0, lineOpts{}, obsOpts{}); err == nil {
		t.Fatal("percell + -kill accepted")
	}
}

func TestRunTCPFlow(t *testing.T) {
	// A bounded Reno transfer completes and prints its summary.
	if err := run(155, "5", "engine", 9180, "fixed", 20*time.Millisecond,
		0, 2, 1, 1, false, 0, "", false, "", false, 0, false, 0, 0, 0, 200_000, lineOpts{}, obsOpts{}); err != nil {
		t.Fatal(err)
	}
	// TCP through the EPD switch path exercises the duplex reverse route.
	if err := run(155, "5", "engine", 9180, "fixed", 10*time.Millisecond,
		0, 2, 1, 1, false, 0, "", false, "", false, 48, false, 0, 0, 0, 50_000, lineOpts{}, obsOpts{}); err != nil {
		t.Fatal(err)
	}
	// percell has no IP stack to bind.
	if err := run(155, "5", "percell", 1000, "fixed", time.Millisecond,
		0, 1, 1, 1, false, 0, "", false, "", false, 0, false, 0, 0, 0, 1000, lineOpts{}, obsOpts{}); err == nil {
		t.Fatal("percell + -tcp accepted")
	}
}

func TestRunFramedLine(t *testing.T) {
	// The full SONET path completes.
	if err := run(155, "5", "engine", 9180, "fixed", 3*time.Millisecond,
		0, 2, 1, 1, false, 0, "", false, "", false, 0, false, 0, 0, 0, 0, lineOpts{Framed: true}, obsOpts{}); err != nil {
		t.Fatal(err)
	}
	// Bit errors ride the framed line; cutting it exercises the SONET fault plane.
	if err := run(155, "5", "engine", 9180, "fixed", 5*time.Millisecond,
		0, 2, 1, 1, false, 0, "", false, "", false, 0, false,
		time.Millisecond, 2*time.Millisecond, 500*time.Microsecond, 0,
		lineOpts{Framed: true, BitErrProb: 1e-6}, obsOpts{}); err != nil {
		t.Fatal(err)
	}
	// -biterr needs -framed.
	if err := run(155, "5", "engine", 1000, "fixed", time.Millisecond,
		0, 1, 1, 1, false, 0, "", false, "", false, 0, false, 0, 0, 0, 0,
		lineOpts{BitErrProb: 1e-6}, obsOpts{}); err == nil {
		t.Fatal("-biterr without -framed accepted")
	}
	// Framed lines are endpoint-to-endpoint: the EPD switch path is refused.
	if err := run(155, "5", "engine", 1000, "fixed", time.Millisecond,
		0, 1, 1, 1, false, 0, "", false, "", false, 32, false, 0, 0, 0, 0,
		lineOpts{Framed: true}, obsOpts{}); err == nil {
		t.Fatal("framed + -epd accepted")
	}
	// percell has no SONET framer to speak through.
	if err := run(155, "5", "percell", 1000, "fixed", time.Millisecond,
		0, 1, 1, 1, false, 0, "", false, "", false, 0, false, 0, 0, 0, 0,
		lineOpts{Framed: true}, obsOpts{}); err == nil {
		t.Fatal("percell + -framed accepted")
	}
}

func TestRunABR(t *testing.T) {
	// The closed loop on the two-station topology: source, ERICA+EFCI
	// switch, turnaround destination.
	if err := run(155, "5", "engine", 9180, "fixed", 5*time.Millisecond,
		0, 2, 1, 1, false, 0, "", false, "", false, 0, true, 0, 0, 0, 0, lineOpts{}, obsOpts{}); err != nil {
		t.Fatal(err)
	}
	// -abr composes with -epd: the switch carries both thresholds.
	if err := run(155, "5", "engine", 9180, "fixed", 5*time.Millisecond,
		0, 2, 1, 1, false, 0, "", false, "", false, 48, true, 0, 0, 0, 0, lineOpts{}, obsOpts{}); err != nil {
		t.Fatal(err)
	}
	// ABR supersedes an explicit contract; the combination is refused.
	if err := run(155, "5", "engine", 1000, "fixed", time.Millisecond,
		0, 1, 1, 1, false, 0, "", false, "100000", false, 0, true, 0, 0, 0, 0, lineOpts{}, obsOpts{}); err == nil {
		t.Fatal("-abr + -contract accepted")
	}
	// percell has no RM plane; framed lines cannot host the switch.
	if err := run(155, "5", "percell", 1000, "fixed", time.Millisecond,
		0, 1, 1, 1, false, 0, "", false, "", false, 0, true, 0, 0, 0, 0, lineOpts{}, obsOpts{}); err == nil {
		t.Fatal("percell + -abr accepted")
	}
	if err := run(155, "5", "engine", 1000, "fixed", time.Millisecond,
		0, 1, 1, 1, false, 0, "", false, "", false, 0, true, 0, 0, 0, 0, lineOpts{Framed: true}, obsOpts{}); err == nil {
		t.Fatal("framed + -abr accepted")
	}
}

// The per-cell baseline's whole stdout for two flag sets: "-arch percell
// -size 1000" and "-arch percell -aal 3/4 -size 4000 -loss 1e-3 -duration
// 20ms -seed 3".
func TestRunPerCellStdout(t *testing.T) {
	cases := []struct {
		name     string
		aal      string
		size     int
		duration time.Duration
		loss     float64
		seed     uint64
		want     string
	}{
		{"size1000", "5", 1000, 50 * time.Millisecond, 0, 1, `architecture      percell (host SAR), 149.76Mb/s, AAL5
packets sent      128
packets delivered 3  (3000 bytes)
goodput           0.48 Mb/s
aal errors        64   rx drops 838
rx host cpu       99.8%   interrupts 1847
`},
		{"aal34_lossy", "3/4", 4000, 20 * time.Millisecond, 1e-3, 3, `architecture      percell (host SAR), 149.76Mb/s, AAL3/4
packets sent      13
packets delivered 0  (0 bytes)
goodput           0.00 Mb/s
aal errors        527   rx drops 379
rx host cpu       99.3%   interrupts 790
`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := captureStdout(t, func() error {
				return run(155, c.aal, "percell", c.size, "fixed", c.duration, c.loss, 4, c.seed, 1, false, 0, "", false, "", false, 0, false, 0, 0, 0, 0, lineOpts{}, obsOpts{})
			})
			if got != c.want {
				t.Fatalf("stdout:\n%s\nwant:\n%s", got, c.want)
			}
		})
	}
}
