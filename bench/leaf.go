package bench

import (
	"testing"

	"repro/internal/aal"
	"repro/internal/atm"
	"repro/internal/bufpool"
	"repro/internal/crc"
	"repro/internal/fifo"
	"repro/internal/sim"
	"repro/internal/sonet"
	"repro/internal/tm"
	"repro/internal/units"
	"repro/internal/vclookup"
)

// leafSink keeps the compiler from discarding leaf results.
var leafSink uint64

// timeLeaf returns the ns per op of op(n), which runs n ops, as
// testing.Benchmark measures it: n grows until one call takes a second.
func timeLeaf(op func(n int)) float64 {
	r := testing.Benchmark(func(b *testing.B) { op(b.N) })
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

// userCell is an encoded AAL5 user cell on VCI 100.
func userCell() [atm.CellSize]byte {
	var b [atm.CellSize]byte
	c := atm.Cell{Header: atm.Header{Format: atm.UNI, VCI: 100, PT: atm.PTUser0}}
	if err := c.Encode(b[:]); err != nil {
		panic(err) // a fixed valid header always encodes
	}
	return b
}

type fixedCells [atm.CellSize]byte

func (f *fixedCells) NextCell(dst []byte) { copy(dst, f[:]) }

// leafMetrics times the public leaf functions each layer's per-cell work is
// built from, with inputs shaped like the workload's: its SDU size, its
// framing rate and its VC table occupancy.
func leafMetrics(w *Workload, vals map[string]float64) {
	cell := userCell()
	var payload [atm.PayloadSize]byte
	copy(payload[:], cell[atm.HeaderSize:])

	vals["crc.hec_ns"] = timeLeaf(func(n int) {
		var s byte
		for i := 0; i < n; i++ {
			s ^= crc.HEC([4]byte{byte(i), cell[1], cell[2], cell[3]})
		}
		leafSink += uint64(s)
	})
	vals["crc.crc32_ns_per_cell"] = timeLeaf(func(n int) {
		s := uint32(0xffff_ffff)
		for i := 0; i < n; i++ {
			s = crc.CRC32Update(s, payload[:])
		}
		leafSink += uint64(s)
	})
	vals["atm.header_decode_ns"] = timeLeaf(func(n int) {
		var h atm.Header
		for i := 0; i < n; i++ {
			if _, err := h.Decode(cell[:atm.HeaderSize], atm.UNI); err != nil {
				panic(err)
			}
		}
		leafSink += uint64(h.VCI)
	})

	sdu := make([]byte, w.sduBytes)
	cells := aal.CellsForSDU5(len(sdu))
	seg := aal.NewSegmenter5()
	segment := func(emit func(*[atm.PayloadSize]byte, atm.PT)) {
		if _, err := seg.Begin(sdu); err != nil {
			panic(err)
		}
		for {
			pt, last, err := seg.Next(&payload)
			if err != nil {
				panic(err)
			}
			emit(&payload, pt)
			if last {
				return
			}
		}
	}
	vals["aal.segment5_ns_per_cell"] = timeLeaf(func(n int) {
		for i := 0; i < n; i++ {
			segment(func(*[atm.PayloadSize]byte, atm.PT) {})
		}
	}) / float64(cells)
	var frame [][atm.PayloadSize]byte
	var pts []atm.PT
	segment(func(p *[atm.PayloadSize]byte, pt atm.PT) {
		frame = append(frame, *p)
		pts = append(pts, pt)
	})
	ras := aal.NewReassembler5(0)
	pool := bufpool.New()
	ras.SetPool(pool)
	vals["aal.reassemble5_ns_per_cell"] = timeLeaf(func(n int) {
		for i := 0; i < n; i++ {
			for j := range frame {
				res, err := ras.Push(&frame[j], pts[j])
				if err != nil {
					panic(err)
				}
				if res != nil {
					pool.Put(res.SDU)
				}
			}
		}
	}) / float64(cells)

	src := fixedCells(cell)
	fr := sonet.NewFramer(w.rate, &src)
	geom := fr.Geometry()
	buf := make([]byte, geom.FrameBytes)
	vals["sonet.frame_ns"] = timeLeaf(func(n int) {
		for i := 0; i < n; i++ {
			fr.NextFrame(buf)
		}
	})
	// 53 frames carry a whole number of cells, so replaying them in a loop
	// keeps the delineator in sync across the wrap.
	frames := make([][]byte, atm.CellSize)
	for i := range frames {
		frames[i] = make([]byte, geom.FrameBytes)
		fr.NextFrame(frames[i])
	}
	var got uint64
	df := sonet.NewDeframer(w.rate, sonet.NewDelineator(func([]byte, bool) { got++ }))
	vals["sonet.deframe_ns"] = timeLeaf(func(n int) {
		for i := 0; i < n; i++ {
			if err := df.PushFrame(frames[i%len(frames)]); err != nil {
				panic(err)
			}
		}
	})
	leafSink += got

	pcr := units.CellRate(units.STS3cPayload)
	pol := tm.NewPolicer(tm.CBRContract(pcr, 0))
	inc := sim.Duration(1e9 / pcr)
	var t sim.Time
	vals["tm.gcra_ns"] = timeLeaf(func(n int) {
		for i := 0; i < n; i++ {
			t += inc
			if pol.Police(t, false) != tm.Conform {
				panic("tm: a cell at exactly PCR must conform")
			}
		}
	})

	ring := fifo.NewRing[*atm.Cell](32)
	c := &atm.Cell{}
	vals["fifo.push_pop_ns"] = timeLeaf(func(n int) {
		for i := 0; i < n; i++ {
			ring.Push(c)
			ring.Pop()
		}
	})

	cam := vclookup.NewCAM(256)
	vcs := make([]atm.VC, w.vcs)
	for i := range vcs {
		vcs[i] = atm.VC{VCI: uint16(100 + i)}
		if _, err := cam.Insert(vcs[i]); err != nil {
			panic(err)
		}
	}
	vals["vclookup.cam_ns"] = timeLeaf(func(n int) {
		var s int
		for i := 0; i < n; i++ {
			idx, _, _ := cam.Lookup(vcs[i%len(vcs)])
			s += idx
		}
		leafSink += uint64(s)
	})

	vals["sim.post_near_ns"] = timeLeaf(postAndDispatch(10 * sim.Microsecond))
	vals["sim.post_far_ns"] = timeLeaf(postAndDispatch(5 * sim.Millisecond))
}

// postAndDispatch keeps 1000 events pending, each re-posting itself d
// later when it fires; one op is one dispatch plus one PostAfter. 10 µs
// lands in the timing wheel, 5 ms beyond its horizon in the overflow heap.
func postAndDispatch(d sim.Duration) func(n int) {
	const pending = 1000
	k := sim.NewKernel()
	var fn func()
	fn = func() { k.PostAfter(d, fn) }
	for i := 0; i < pending; i++ {
		k.PostAfter(sim.Duration(i)*d/pending, fn)
	}
	return func(n int) {
		for i := 0; i < n; i++ {
			k.Step()
		}
	}
}
