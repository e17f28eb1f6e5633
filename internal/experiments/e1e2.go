package experiments

import (
	"fmt"

	"repro/internal/aal"
	"repro/internal/atm"
	"repro/internal/bufmgr"
	"repro/internal/engine"
	"repro/internal/nic"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/vclookup"
)

// E1Row is one transmit-firmware budget line.
type E1Row struct {
	Routine   string
	AAL       aal.Type
	Instr     int
	Time      sim.Duration // on the default engine, incl. dispatch
	Frac155   float64      // of the 155 Mb/s cell time
	Frac622   float64      // of the 622 Mb/s cell time
	PerPacket bool
}

// E1 computes the transmit-side per-cell cycle budget table: every firmware
// routine's instruction count and its fraction of the cell time at both
// line rates, for both AAL builds. The paper-shape claim: per-cell routines
// fit far inside the 155 Mb/s cell time and only the AAL3/4 build
// approaches half of the 622 Mb/s cell time.
func E1(engCfg engine.Config) ([]E1Row, *report.Table) {
	k := sim.NewKernel()
	eng := engine.New(k, engCfg)
	ct155 := units.CellTime(units.STS3cPayload)
	ct622 := units.CellTime(units.STS12cPayload)

	var rows []E1Row
	for _, t := range []aal.Type{aal.AAL5, aal.AAL34} {
		for _, fc := range nic.TxFirmwareCosts(t) {
			rt := eng.RoutineTime(fc.Instr)
			rows = append(rows, E1Row{
				Routine: fc.Name, AAL: t, Instr: fc.Instr, Time: rt,
				Frac155:   float64(rt) / float64(ct155),
				Frac622:   float64(rt) / float64(ct622),
				PerPacket: fc.PerPacket,
			})
		}
	}
	tb := report.NewTable(
		fmt.Sprintf("E1: transmit firmware budgets (%d MHz engine, dispatch %d instr)",
			engCfg.ClockHz/1_000_000, engCfg.DispatchInstr),
		"routine", "aal", "instr", "time", "x155-cell", "x622-cell", "scope")
	tb.Note = fmt.Sprintf("cell time: %v at 155 Mb/s payload, %v at 622", ct155, ct622)
	for _, r := range rows {
		scope := "per-cell"
		if r.PerPacket {
			scope = "per-packet"
		}
		tb.Row(r.Routine, r.AAL.String(), r.Instr, r.Time.String(), r.Frac155, r.Frac622, scope)
	}
	return rows, tb
}

// E2Row is one receive-firmware budget line for a lookup/buffer pairing.
type E2Row struct {
	AAL     aal.Type
	Lookup  string
	Buffers bufmgr.Organization
	Instr   int // rx_cell total including lookup and append
	Time    sim.Duration
	Frac155 float64
	Frac622 float64
}

// E2 computes the receive-side per-cell budget across the lookup-strategy ×
// buffer-organization design space (at a representative table occupancy of
// 64 VCs, worst-entry lookup). The receive path is the tighter budget —
// exactly why the paper puts the CAM and buffer datapath in hardware.
func E2(engCfg engine.Config) ([]E2Row, *report.Table) {
	k := sim.NewKernel()
	eng := engine.New(k, engCfg)
	ct155 := units.CellTime(units.STS3cPayload)
	ct622 := units.CellTime(units.STS12cPayload)

	lookups := []struct {
		name   string
		cycles int
	}{
		{"cam", lookCost(vclookup.NewCAM(256))},
		{"hash", lookCost(vclookup.NewHash(256))},
		{"linear", lookCost(vclookup.NewLinear(256))},
	}

	var rows []E2Row
	for _, t := range []aal.Type{aal.AAL5, aal.AAL34} {
		for _, lk := range lookups {
			for _, org := range bufmgr.Organizations() {
				costs := nic.RxFirmwareCosts(t, lk.cycles, appendCost(org))
				instr := costs[0].Instr // rx_cell row
				rt := eng.RoutineTime(instr)
				rows = append(rows, E2Row{
					AAL: t, Lookup: lk.name, Buffers: org, Instr: instr, Time: rt,
					Frac155: float64(rt) / float64(ct155),
					Frac622: float64(rt) / float64(ct622),
				})
			}
		}
	}
	tb := report.NewTable(
		fmt.Sprintf("E2: receive per-cell budget (rx_cell) by lookup and buffer org (%d MHz engine)",
			engCfg.ClockHz/1_000_000),
		"aal", "lookup", "buffers", "instr", "time", "x155-cell", "x622-cell")
	perPacket := nic.RxFirmwareCosts(aal.AAL5, 0, 0)
	tb.Note = fmt.Sprintf("per-packet routines: %s %d instr, %s %d instr",
		perPacket[1].Name, perPacket[1].Instr, perPacket[2].Name, perPacket[2].Instr)
	for _, r := range rows {
		tb.Row(r.AAL.String(), r.Lookup, r.Buffers.String(), r.Instr, r.Time.String(),
			r.Frac155, r.Frac622)
	}
	return rows, tb
}

// lookCost is a lookup strategy's representative cost at 64 open VCs: the
// cycles to find the last entry (worst case for the scan).
func lookCost(s vclookup.Strategy) int {
	var last atm.VC
	for i := 0; i < 64; i++ {
		vc := atm.VC{VCI: uint16(1 + i*3)}
		if _, err := s.Insert(vc); err != nil {
			panic(err)
		}
		last = vc
	}
	_, cycles, ok := s.Lookup(last)
	if !ok {
		panic("experiments: lookup lost an entry")
	}
	return cycles
}

// appendCost is a buffer organization's representative append cost: a
// steady-state mid-frame append.
func appendCost(org bufmgr.Organization) int {
	a := bufmgr.NewAllocator(org, 0)
	f, err := a.NewFrame(256)
	if err != nil {
		panic(err)
	}
	var cycles int
	for i := 0; i < 8; i++ { // past any first-page setup
		cycles, err = f.Append()
		if err != nil {
			panic(err)
		}
	}
	return cycles
}

// boardRxCosts is the receive firmware as the interface runs it: AAL5 with
// the CAM and paged adapter buffers.
func boardRxCosts() []nic.FirmwareCost {
	return nic.RxFirmwareCosts(aal.AAL5, lookCost(vclookup.NewCAM(256)), appendCost(bufmgr.Paged))
}
