// Package tm is the traffic-management subsystem: the usage-parameter
// control layer Davie's interface architecture presumes the network runs.
// The board's per-VC pacing (the shaping half of UPC) only pays off if the
// network edge polices the same contract and the switches spend their
// buffers on conforming traffic — this package supplies those pieces:
//
//   - TrafficContract: the (service class, PCR, SCR, MBS, CDVT) tuple both
//     ends agree on, unifying the NIC's transmit shaping with the network's
//     ingress policing;
//   - Policer: the GCRA (virtual-scheduling leaky bucket) conformance test
//     of ITU-T I.371 / ATM Forum TM 4.0, single-bucket (PCR/CDVT) or
//     dual-bucket (PCR/CDVT + SCR/MBS), with conform / tag-CLP / discard
//     actions, cycle-costed like the NIC firmware;
//   - Shaper: the transmit-side dual of the policer — it computes departure
//     times such that the cell stream passes its own contract's policer
//     with zero non-conforming cells;
//   - CAC: connection admission control against per-link bandwidth and
//     buffer budgets.
//
// Like every hot-path model in this repository, conformance checks are
// plain integer arithmetic on pre-resolved state: no allocation, no map
// lookups, no floating point.
package tm

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/units"
)

// ServiceClass is the ATM service category a connection is contracted
// under. The classes map to switch scheduling priority: CBR drains first,
// rt-VBR second, then ABR, UBR last.
type ServiceClass uint8

const (
	// CBR is constant bit rate: the contract is PCR alone, policed tightly;
	// the network reserves PCR end to end (circuit emulation, voice).
	CBR ServiceClass = iota
	// RtVBR is real-time variable bit rate: PCR bounds the burst rate, SCR
	// the sustained rate, MBS the burst length (video, bursty real-time).
	RtVBR
	// ABR is available bit rate: the network guarantees MCR and the source
	// tracks the explicit rate the closed feedback loop (RM cells, ERICA)
	// hands back, so ABR traffic soaks up whatever CBR/VBR leave unused
	// without building standing queues the way UBR does.
	ABR
	// UBR is unspecified bit rate: no reservation, no throughput
	// commitment, first to be discarded under congestion (data).
	UBR

	numClasses
)

// NumClasses is the number of service classes (= switch priority levels).
const NumClasses = int(numClasses)

// String implements fmt.Stringer.
func (c ServiceClass) String() string {
	switch c {
	case CBR:
		return "cbr"
	case RtVBR:
		return "rt-vbr"
	case ABR:
		return "abr"
	case UBR:
		return "ubr"
	default:
		return fmt.Sprintf("ServiceClass(%d)", uint8(c))
	}
}

// TrafficContract is the traffic descriptor a connection is admitted,
// shaped and policed against. Rates are in cells per second — the unit the
// GCRA increments derive from; units.CellRate converts a payload BitRate.
type TrafficContract struct {
	// Class selects the service category (and the switch priority).
	Class ServiceClass
	// PCR is the peak cell rate in cells/s. Required for every class.
	PCR float64
	// SCR is the sustainable cell rate in cells/s (VBR only; 0 = none).
	SCR float64
	// MBS is the maximum burst size in cells the connection may emit
	// back-to-back at PCR while staying SCR-conforming (VBR only).
	MBS int
	// MCR is the minimum cell rate in cells/s the network commits to an
	// ABR connection: the floor the source never drops ACR below, and the
	// bandwidth the CAC reserves (ABR only; 0 elsewhere).
	MCR float64
	// CDVT is the cell-delay-variation tolerance the policer grants on the
	// peak bucket: the jitter budget for FIFO quantization and multiplexing
	// between the shaper and the policing point.
	CDVT sim.Duration
}

// Validate checks the contract's internal consistency.
func (c *TrafficContract) Validate() error {
	if c.Class >= numClasses {
		return fmt.Errorf("tm: unknown service class %d", uint8(c.Class))
	}
	if c.PCR <= 0 {
		return fmt.Errorf("tm: contract needs PCR > 0, got %g", c.PCR)
	}
	if c.SCR < 0 || c.SCR > c.PCR {
		return fmt.Errorf("tm: SCR %g outside (0, PCR=%g]", c.SCR, c.PCR)
	}
	if c.SCR > 0 && c.MBS < 1 {
		return fmt.Errorf("tm: SCR without MBS >= 1")
	}
	if c.SCR == 0 && c.MBS != 0 {
		return fmt.Errorf("tm: MBS %d without SCR", c.MBS)
	}
	if c.CDVT < 0 {
		return fmt.Errorf("tm: negative CDVT %v", c.CDVT)
	}
	if c.Class == CBR && c.SCR != 0 {
		return fmt.Errorf("tm: CBR contract carries an SCR; CBR is PCR-only")
	}
	if c.MCR < 0 || c.MCR > c.PCR {
		return fmt.Errorf("tm: MCR %g outside [0, PCR=%g]", c.MCR, c.PCR)
	}
	if c.MCR > 0 && c.Class != ABR {
		return fmt.Errorf("tm: MCR is an ABR parameter; class is %v", c.Class)
	}
	if c.Class == ABR && c.SCR != 0 {
		return fmt.Errorf("tm: ABR contract carries an SCR; ABR is PCR/MCR-only")
	}
	return nil
}

// Dual reports whether the contract needs the second (SCR/MBS) bucket.
func (c *TrafficContract) Dual() bool { return c.SCR > 0 }

// PeakIncrement returns the PCR bucket's GCRA increment T = 1/PCR.
func (c *TrafficContract) PeakIncrement() sim.Duration {
	return sim.Duration(1e9/c.PCR + 0.5)
}

// SustainedIncrement returns the SCR bucket's increment Ts = 1/SCR
// (0 when the contract has no SCR bucket).
func (c *TrafficContract) SustainedIncrement() sim.Duration {
	if c.SCR <= 0 {
		return 0
	}
	return sim.Duration(1e9/c.SCR + 0.5)
}

// BurstTolerance returns the SCR bucket's limit
// BT = (MBS-1)·(Ts − T): the slack that lets MBS cells leave back-to-back
// at PCR before the sustained bucket bites (TM 4.0 §4.4.2).
func (c *TrafficContract) BurstTolerance() sim.Duration {
	if !c.Dual() {
		return 0
	}
	d := c.SustainedIncrement() - c.PeakIncrement()
	if d < 0 {
		d = 0
	}
	return sim.Duration(c.MBS-1) * d
}

// String implements fmt.Stringer.
func (c TrafficContract) String() string {
	if c.Dual() {
		return fmt.Sprintf("%v pcr=%.0fc/s scr=%.0fc/s mbs=%d cdvt=%v",
			c.Class, c.PCR, c.SCR, c.MBS, c.CDVT)
	}
	if c.Class == ABR {
		return fmt.Sprintf("%v pcr=%.0fc/s mcr=%.0fc/s cdvt=%v",
			c.Class, c.PCR, c.MCR, c.CDVT)
	}
	return fmt.Sprintf("%v pcr=%.0fc/s cdvt=%v", c.Class, c.PCR, c.CDVT)
}

// CBRContract builds a PCR-only contract at the given cell rate.
func CBRContract(pcr float64, cdvt sim.Duration) TrafficContract {
	return TrafficContract{Class: CBR, PCR: pcr, CDVT: cdvt}
}

// VBRContract builds a dual-bucket rt-VBR contract.
func VBRContract(pcr, scr float64, mbs int, cdvt sim.Duration) TrafficContract {
	return TrafficContract{Class: RtVBR, PCR: pcr, SCR: scr, MBS: mbs, CDVT: cdvt}
}

// UBRContract builds a best-effort contract whose PCR is the line rate —
// shaped nowhere, policed only against the raw link capacity.
func UBRContract(rate units.BitRate) TrafficContract {
	return TrafficContract{Class: UBR, PCR: units.CellRate(rate)}
}
