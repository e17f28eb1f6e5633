package experiments

import (
	"fmt"

	"repro/internal/atm"
	"repro/internal/bufmgr"
	"repro/internal/report"
	"repro/internal/vclookup"
)

// E6Point is the average lookup cost at one table occupancy.
type E6Point struct {
	Strategy  string
	VCs       int
	AvgCycles float64
	MaxCycles int
}

// E6 measures VC-lookup cycles per cell versus the number of open VCs for
// the three strategies. Paper shape: the CAM is flat; the firmware hash is
// flat-ish but several times costlier; the linear scan grows linearly and
// is hopeless beyond a few dozen VCs — the quantitative case for the CAM on
// the receive datapath.
func E6(occupancies []int) ([]E6Point, *report.Series) {
	if len(occupancies) == 0 {
		occupancies = []int{1, 4, 16, 64, 256, 1024}
	}
	max := occupancies[len(occupancies)-1]
	builders := map[string]func() vclookup.Strategy{
		"cam":    func() vclookup.Strategy { return vclookup.NewCAM(max) },
		"hash":   func() vclookup.Strategy { return vclookup.NewHash(max) },
		"linear": func() vclookup.Strategy { return vclookup.NewLinear(max) },
	}
	var pts []E6Point
	for _, name := range []string{"cam", "hash", "linear"} {
		s := builders[name]()
		inserted := 0
		for _, n := range occupancies {
			for inserted < n {
				vc := atm.VC{VPI: uint16(inserted >> 12), VCI: uint16(inserted*5 + 1)}
				if _, err := s.Insert(vc); err != nil {
					panic(fmt.Sprintf("E6: insert %d: %v", inserted, err))
				}
				inserted++
			}
			total, worst := 0, 0
			for i := 0; i < n; i++ {
				vc := atm.VC{VPI: uint16(i >> 12), VCI: uint16(i*5 + 1)}
				_, cycles, ok := s.Lookup(vc)
				if !ok {
					panic("E6: lookup miss")
				}
				total += cycles
				if cycles > worst {
					worst = cycles
				}
			}
			pts = append(pts, E6Point{Strategy: name, VCs: n,
				AvgCycles: float64(total) / float64(n), MaxCycles: worst})
		}
	}
	x := make([]float64, len(occupancies))
	for i, n := range occupancies {
		x[i] = float64(n)
	}
	sr := report.NewSeries("E6: VC lookup cost (avg engine cycles/cell) vs open VCs", "vcs", x)
	for _, name := range []string{"cam", "hash", "linear"} {
		var y []float64
		for _, p := range pts {
			if p.Strategy == name {
				y = append(y, p.AvgCycles)
			}
		}
		sr.Add(name, y)
	}
	return pts, sr
}

// E7Row is one (organization, frame size) memory/cost measurement.
type E7Row struct {
	Org          bufmgr.Organization
	FrameCells   int
	LocalBytes   int // adapter SRAM for one such frame (on a max-size VC)
	HostBytes    int
	AppendCycles float64 // mean per-cell append cost
	AccessCycles int     // random access to the middle cell
}

// E7 tabulates the reassembly-buffer organizations: adapter memory pinned
// per frame and per-cell costs, at the three canonical frame sizes (2-cell
// control message, 196-cell IP MTU, 1366-cell maximum). Paper shape: the
// contiguous organization pins a worst-case frame per VC regardless of the
// actual frame; the paged organization stays near the linked list's memory
// while keeping constant-time access; hostmem frees the adapter entirely at
// the price of bus crossings.
func E7() ([]E7Row, *report.Table) {
	frameSizes := []int{2, 196, 1366}
	const maxCells = 1366
	var rows []E7Row
	for _, org := range bufmgr.Organizations() {
		for _, n := range frameSizes {
			a := bufmgr.NewAllocator(org, 0)
			f, err := a.NewFrame(maxCells)
			if err != nil {
				panic(err)
			}
			total := 0
			for i := 0; i < n; i++ {
				c, err := f.Append()
				if err != nil {
					panic(err)
				}
				total += c
			}
			access, err := f.Access(n / 2)
			if err != nil {
				panic(err)
			}
			rows = append(rows, E7Row{
				Org: org, FrameCells: n,
				LocalBytes: f.LocalBytes(), HostBytes: f.HostBytes(),
				AppendCycles: float64(total) / float64(n),
				AccessCycles: access,
			})
			f.Release()
		}
	}
	tb := report.NewTable("E7: reassembly buffer organizations (per frame, on a 1366-cell-capable VC)",
		"org", "frame-cells", "local-bytes", "host-bytes", "append-cyc/cell", "random-access-cyc")
	for _, r := range rows {
		tb.Row(r.Org.String(), r.FrameCells, r.LocalBytes, r.HostBytes, r.AppendCycles, r.AccessCycles)
	}
	return rows, tb
}
