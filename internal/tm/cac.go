package tm

import (
	"fmt"

	"repro/internal/units"
)

// CAC is connection admission control for one link: it decides whether a
// new contract fits the remaining bandwidth and buffer budgets before any
// cell flows, so the policers downstream only ever see admitted contracts.
//
// The reservation rule is the classic peak/sustained split:
//
//   - CBR reserves its PCR — the class gets circuit-like service, so the
//     link must carry the peak continuously;
//   - rt-VBR reserves its SCR of bandwidth plus MBS cells of buffer — the
//     burst above SCR is absorbed by the queue the MBS reservation holds;
//   - ABR reserves its MCR — the only rate the network commits to; the
//     head-room above it is steered by the RM-cell feedback loop, not held;
//   - UBR reserves nothing and is admitted while any bandwidth remains
//     unreserved (it scavenges leftovers and is first to be discarded).
type CAC struct {
	linkCells float64 // link capacity, cells/s
	bufCells  int     // buffer budget, cells

	reservedCells float64
	reservedBuf   int
	admitted      int
}

// NewCAC builds an admission controller for a link of the given payload
// rate and a queue of bufCells cells.
func NewCAC(rate units.BitRate, bufCells int) *CAC {
	return &CAC{linkCells: units.CellRate(rate), bufCells: bufCells}
}

// demand returns the bandwidth (cells/s) and buffer (cells) a contract
// reserves.
func demand(c TrafficContract) (cells float64, buf int) {
	switch c.Class {
	case CBR:
		return c.PCR, 0
	case RtVBR:
		return c.SCR, c.MBS
	case ABR:
		return c.MCR, 0
	default: // UBR
		return 0, 0
	}
}

// Admit accepts or rejects the contract. On acceptance the contract's
// demand is reserved until Release is called with the same contract.
func (a *CAC) Admit(c TrafficContract) error {
	if err := c.Validate(); err != nil {
		return err
	}
	cells, buf := demand(c)
	if c.Class == UBR && a.reservedCells >= a.linkCells {
		return fmt.Errorf("tm: cac: link fully reserved, no capacity left for ubr")
	}
	if a.reservedCells+cells > a.linkCells {
		return fmt.Errorf("tm: cac: bandwidth %0.f + %.0f exceeds link %.0f cells/s",
			a.reservedCells, cells, a.linkCells)
	}
	if a.reservedBuf+buf > a.bufCells {
		return fmt.Errorf("tm: cac: buffer %d + %d exceeds budget %d cells",
			a.reservedBuf, buf, a.bufCells)
	}
	a.reservedCells += cells
	a.reservedBuf += buf
	a.admitted++
	return nil
}

// Release returns the contract's reservation to the pool.
func (a *CAC) Release(c TrafficContract) {
	cells, buf := demand(c)
	a.reservedCells -= cells
	a.reservedBuf -= buf
	if a.reservedCells < 0 {
		a.reservedCells = 0
	}
	if a.reservedBuf < 0 {
		a.reservedBuf = 0
	}
	if a.admitted > 0 {
		a.admitted--
	}
}

// Admitted returns the number of currently admitted connections.
func (a *CAC) Admitted() int { return a.admitted }

// ReservedBandwidth returns the reserved bandwidth in cells/s.
func (a *CAC) ReservedBandwidth() float64 { return a.reservedCells }

// ReservedBuffer returns the reserved buffer in cells.
func (a *CAC) ReservedBuffer() int { return a.reservedBuf }
