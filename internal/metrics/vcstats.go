package metrics

// VCID identifies a virtual connection. It mirrors atm.VC without importing
// the atm package, so metrics stays a leaf dependency every layer can use.
type VCID struct {
	VPI uint16 `json:"vpi"`
	VCI uint16 `json:"vci"`
}

// DropCause classifies why a cell or frame belonging to a VC was lost.
// Each cause maps to one slot of VCStats.Drops.
type DropCause uint8

const (
	// DropFIFO is an RX cell FIFO overflow (hardware drop on arrival).
	DropFIFO DropCause = iota
	// DropUnknownVC is a cell addressed to a VC with no table entry.
	DropUnknownVC
	// DropSRAM is a frame abandoned for adapter buffer-memory exhaustion.
	DropSRAM
	// DropAAL is a frame discarded by an adaptation-layer check (CRC,
	// length, sequence, tag).
	DropAAL
	// DropTxQueue is a transmit-side link queue overflow (the interface
	// outran the framer).
	DropTxQueue
	// DropPolicedTag is a cell the ingress policer demoted to CLP=1 (the
	// GCRA tagging action). The cell was forwarded, not lost — but it is
	// now discard-eligible, so per-VC accounting tracks it with the causes.
	DropPolicedTag
	// DropPolicedDiscard is a cell the ingress policer dropped for
	// violating its traffic contract.
	DropPolicedDiscard
	// DropEPD is a cell dropped by Early Packet Discard: the whole AAL5
	// frame was refused at the switch queue before any of it was enqueued.
	DropEPD
	// DropPPD is a cell dropped by Partial Packet Discard: the tail of a
	// frame whose earlier cell was already lost (the rest of the frame is
	// useless to the reassembler).
	DropPPD
	// DropSwitchQueue is a switch output-queue overflow (tail drop).
	DropSwitchQueue
	// DropCLPThreshold is a CLP=1 cell dropped at a congested switch queue
	// above its discard-eligible threshold.
	DropCLPThreshold
	// DropBadOAM is a management cell discarded by the OAM slow path:
	// damaged (CRC-10 failure) or carrying a type/function the firmware
	// does not implement.
	DropBadOAM
	// DropMgmtTxFull is a firmware-generated management cell (loopback
	// response, AIS/RDI) dropped because the transmit FIFO was full.
	DropMgmtTxFull
	// DropLink is a cell lost in transit on the physical link (fiber cut
	// or random in-flight loss).
	DropLink
	// DropReassemblyTimeout is a partial frame aged out of the reassembler:
	// a frame-level loss (the cells already spent were wasted), as opposed
	// to the cell-level causes above. Distinguishing it from DropEPD is how
	// an experiment attributes goodput loss to stranded reassembly state
	// rather than deliberate frame discard at the switch.
	DropReassemblyTimeout

	numDropCauses
)

// String implements fmt.Stringer; the names appear in snapshots.
func (c DropCause) String() string {
	switch c {
	case DropFIFO:
		return "fifo_overflow"
	case DropUnknownVC:
		return "unknown_vc"
	case DropSRAM:
		return "sram_exhausted"
	case DropAAL:
		return "aal_error"
	case DropTxQueue:
		return "tx_queue_overflow"
	case DropPolicedTag:
		return "policed_clp_tag"
	case DropPolicedDiscard:
		return "policed_discard"
	case DropEPD:
		return "epd"
	case DropPPD:
		return "ppd"
	case DropSwitchQueue:
		return "switch_queue_overflow"
	case DropCLPThreshold:
		return "clp_threshold"
	case DropBadOAM:
		return "oam_bad"
	case DropMgmtTxFull:
		return "mgmt_tx_full"
	case DropLink:
		return "link_loss"
	case DropReassemblyTimeout:
		return "reassembly_timeout"
	default:
		return "unknown"
	}
}

// VCStats is one connection's accounting row, updated inline by the NIC
// datapath and the AAL reassemblers. Directionality follows the adapter:
// "Out" is the transmit side (host → wire), "In" the receive side
// (wire → host). All update methods are nil-safe and allocation-free.
type VCStats struct {
	VCID

	CellsOut uint64 // data cells emitted to the wire
	CellsIn  uint64 // data cells accepted by the receive firmware
	SDUsOut  uint64 // frames fully segmented and transmitted
	SDUsIn   uint64 // frames delivered to the host
	BytesOut uint64 // SDU bytes transmitted
	BytesIn  uint64 // SDU bytes delivered

	// Drops counts losses by cause; index with DropCause.
	Drops [numDropCauses]uint64

	CRCErrors          uint64 // frame CRC-32 or per-cell CRC-10 failures
	LengthErrors       uint64 // CPCS length/tag field mismatches
	LostCells          uint64 // sequence-detected cell losses (AAL3/4)
	ReassemblyTimeouts uint64 // partial frames aged out
	MidFrameKills      uint64 // frames killed by a corrupt cell mid-reassembly
}

// AddCellOut counts one transmitted data cell.
func (s *VCStats) AddCellOut() {
	if s == nil {
		return
	}
	s.CellsOut++
}

// AddCellIn counts one received data cell.
func (s *VCStats) AddCellIn() {
	if s == nil {
		return
	}
	s.CellsIn++
}

// AddSDUOut counts one transmitted frame of n SDU bytes.
func (s *VCStats) AddSDUOut(n int) {
	if s == nil {
		return
	}
	s.SDUsOut++
	s.BytesOut += uint64(n)
}

// AddSDUIn counts one delivered frame of n SDU bytes.
func (s *VCStats) AddSDUIn(n int) {
	if s == nil {
		return
	}
	s.SDUsIn++
	s.BytesIn += uint64(n)
}

// Drop counts one loss of the given cause.
func (s *VCStats) Drop(c DropCause) {
	if s == nil {
		return
	}
	s.Drops[c]++
}

// IncCRCError counts one CRC failure (frame CRC-32 or cell CRC-10).
func (s *VCStats) IncCRCError() {
	if s == nil {
		return
	}
	s.CRCErrors++
}

// IncLengthError counts one CPCS length or tag mismatch.
func (s *VCStats) IncLengthError() {
	if s == nil {
		return
	}
	s.LengthErrors++
}

// IncLostCells counts one sequence-detected cell loss.
func (s *VCStats) IncLostCells() {
	if s == nil {
		return
	}
	s.LostCells++
}

// IncReassemblyTimeout counts one aged-out partial frame.
func (s *VCStats) IncReassemblyTimeout() {
	if s == nil {
		return
	}
	s.ReassemblyTimeouts++
}

// IncMidFrameKill counts one frame killed by a corrupt cell arriving while
// its reassembly was in progress (as opposed to an isolated bad cell, which
// costs only itself).
func (s *VCStats) IncMidFrameKill() {
	if s == nil {
		return
	}
	s.MidFrameKills++
}
