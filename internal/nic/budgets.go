package nic

import "repro/internal/aal"

// FirmwareCost is one row of the delay-analysis tables (experiments E1/E2):
// a named firmware routine and its instruction budget, excluding the
// engine's dispatch overhead (reported separately so the tables can show
// both).
type FirmwareCost struct {
	Name      string
	Instr     int
	PerPacket bool // charged once per packet rather than per cell
}

// TxFirmwareCosts returns the transmit-side budgets for an AAL build.
func TxFirmwareCosts(t aal.Type) []FirmwareCost {
	start := txStartInstr
	mid := txCellInstr
	last := txCellInstr + txCellLastExtra
	if t == aal.AAL34 {
		start += txStartAAL34Extra
		mid += txCellAAL34Extra
		last += txCellAAL34Extra
	}
	return []FirmwareCost{
		{Name: "tx_start", Instr: start, PerPacket: true},
		{Name: "tx_cell (mid)", Instr: mid},
		{Name: "tx_cell (last)", Instr: last},
		{Name: "tx_done", Instr: txDoneInstr, PerPacket: true},
	}
}

// RxFirmwareCosts returns the receive-side budgets for an AAL build.
// lookupCycles and appendCycles are the per-cell costs of a VC-lookup
// strategy and a buffer organization, which the firmware inlines (E2
// prices every pairing; the interface runs the CAM and paged SRAM).
func RxFirmwareCosts(t aal.Type, lookupCycles, appendCycles int) []FirmwareCost {
	cell := rxCellInstr + lookupCycles + appendCycles
	if t == aal.AAL34 {
		cell += rxCellAAL34Extra
	}
	return []FirmwareCost{
		{Name: "rx_cell", Instr: cell},
		{Name: "rx_eop", Instr: rxEOPInstr, PerPacket: true},
		{Name: "rx_err", Instr: rxErrInstr, PerPacket: true},
	}
}
