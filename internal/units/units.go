// Package units provides the rate, size and cell-timing arithmetic shared by
// every model in the repository.
//
// The quantities that matter in an ATM host interface are awkward: a SONET
// STS-3c link runs at 155.52 Mb/s but only 149.76 Mb/s of that is payload
// once transport and path overhead are removed, and each 53-byte cell carries
// at most 48 bytes of adaptation-layer payload (44 under AAL3/4).  This
// package centralizes those constants so the experiments, the simulator and
// the documentation cannot drift apart.
package units

import (
	"fmt"

	"repro/internal/sim"
)

// BitRate is a line or payload rate in bits per second.
type BitRate int64

// Standard SONET SPE (payload envelope) rates: what is available to carry
// ATM cells once SONET transport and path overhead leave the line rate.
const (
	Kbps BitRate = 1_000
	Mbps BitRate = 1_000_000
	Gbps BitRate = 1_000_000_000

	// STS3cPayload is the payload envelope of the OC-3c/STS-3c line the
	// interface was built for: the 155.52 Mb/s line rate net of the 9-byte
	// path overhead column (260/270 of 9/10 of line = 149.76 Mb/s).
	STS3cPayload BitRate = 149_760_000

	// STS12cPayload is the payload envelope of the 622.08 Mb/s OC-12c line
	// the architecture was designed toward (599.04 Mb/s).
	STS12cPayload BitRate = 599_040_000
)

// String renders the rate in engineering units.
func (r BitRate) String() string {
	switch {
	case r >= Gbps:
		return fmt.Sprintf("%.3fGb/s", float64(r)/float64(Gbps))
	case r >= Mbps:
		return fmt.Sprintf("%.2fMb/s", float64(r)/float64(Mbps))
	case r >= Kbps:
		return fmt.Sprintf("%.1fKb/s", float64(r)/float64(Kbps))
	default:
		return fmt.Sprintf("%db/s", int64(r))
	}
}

// CellSize is the full ATM cell: 5-byte header + 48-byte payload.
const CellSize = 53

// TimePerBytes returns the simulated time to transmit n bytes at rate r,
// rounding half-up to the nearest nanosecond.  r must be positive.
func TimePerBytes(r BitRate, n int) sim.Duration {
	if r <= 0 {
		panic("units: non-positive rate")
	}
	if n < 0 {
		panic("units: negative byte count")
	}
	bits := int64(n) * 8
	// duration_ns = bits * 1e9 / rate, computed without overflow for any
	// realistic n (bits up to ~2^40 keeps bits*1e9 within int64 range only
	// for small n, so split the division).
	whole := bits / int64(r)
	rem := bits % int64(r)
	ns := whole*1_000_000_000 + (rem*1_000_000_000+int64(r)/2)/int64(r)
	return sim.Duration(ns)
}

// CellTime returns the time one 53-byte cell occupies on a link whose ATM
// payload rate is r (use the SPE payload rate, not the line rate: cells ride
// inside the SONET payload envelope).
//
// At STS-3c payload rate this is 2831 ns; the widely quoted "2.7 µs cell
// time at 155 Mb/s" uses the line rate (2726 ns).  The experiments quote
// both where the distinction matters.
func CellTime(r BitRate) sim.Duration { return TimePerBytes(r, CellSize) }

// CellRate returns cells per second at ATM payload rate r.
func CellRate(r BitRate) float64 { return float64(r) / (8 * CellSize) }

// CellsForPayload returns the number of cells needed to carry n bytes of
// adaptation-layer payload at perCell payload bytes per cell (48 for AAL5
// SAR, 44 for AAL3/4).
func CellsForPayload(n, perCell int) int {
	if perCell <= 0 {
		panic("units: non-positive per-cell payload")
	}
	if n <= 0 {
		return 0
	}
	return (n + perCell - 1) / perCell
}

// ThroughputBps converts a byte count delivered over a simulated duration to
// bits per second.
func ThroughputBps(bytes int64, d sim.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) * 8 / d.Seconds()
}
