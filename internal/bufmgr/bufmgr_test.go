package bufmgr

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func cellPattern(i int) []byte {
	p := make([]byte, CellPayload)
	for j := range p {
		p[j] = byte(i*53 + j)
	}
	return p
}

func TestAppendAndReadBackAllOrganizations(t *testing.T) {
	for _, org := range Organizations() {
		a := NewAllocator(org, 0)
		f, err := a.NewFrame(100)
		if err != nil {
			t.Fatalf("%v: %v", org, err)
		}
		for i := 0; i < 100; i++ {
			cycles, err := f.Append(cellPattern(i))
			if err != nil {
				t.Fatalf("%v: append %d: %v", org, i, err)
			}
			if cycles <= 0 {
				t.Fatalf("%v: free append", org)
			}
		}
		if f.Cells() != 100 {
			t.Fatalf("%v: Cells = %d", org, f.Cells())
		}
		for i := 0; i < 100; i++ {
			p, cycles, err := f.Cell(i)
			if err != nil {
				t.Fatalf("%v: cell %d: %v", org, i, err)
			}
			if !bytes.Equal(p, cellPattern(i)) {
				t.Fatalf("%v: cell %d corrupted", org, i)
			}
			if cycles <= 0 {
				t.Fatalf("%v: free random access", org)
			}
		}
		f.Release()
		if a.Used() != 0 {
			t.Fatalf("%v: %d bytes leaked after release", org, a.Used())
		}
	}
}

func TestFrameFullRejected(t *testing.T) {
	for _, org := range Organizations() {
		a := NewAllocator(org, 0)
		f, _ := a.NewFrame(2)
		f.Append(cellPattern(0))
		f.Append(cellPattern(1))
		if _, err := f.Append(cellPattern(2)); !errors.Is(err, ErrFrameFull) {
			t.Fatalf("%v: err = %v, want ErrFrameFull", org, err)
		}
	}
}

func TestBadIndexRejected(t *testing.T) {
	for _, org := range Organizations() {
		a := NewAllocator(org, 0)
		f, _ := a.NewFrame(4)
		f.Append(cellPattern(0))
		for _, i := range []int{-1, 1, 4} {
			if _, _, err := f.Cell(i); !errors.Is(err, ErrBadIndex) {
				t.Fatalf("%v: Cell(%d) err = %v", org, i, err)
			}
		}
	}
}

func TestContigPinsFullReservation(t *testing.T) {
	a := NewAllocator(Contig, 0)
	f, _ := a.NewFrame(1366)
	// Before any cell arrives, the whole worst-case frame is pinned.
	if f.LocalBytes() < 1366*CellPayload {
		t.Fatalf("contig pinned only %d bytes", f.LocalBytes())
	}
	before := a.Used()
	f.Append(cellPattern(0))
	if a.Used() != before {
		t.Fatal("contig reservation grew on append")
	}
}

func TestLinkedGrowsPerCell(t *testing.T) {
	a := NewAllocator(Linked, 0)
	f, _ := a.NewFrame(1366)
	base := f.LocalBytes()
	f.Append(cellPattern(0))
	if f.LocalBytes() != base+linkedNodeBytes {
		t.Fatalf("linked grew by %d, want %d", f.LocalBytes()-base, linkedNodeBytes)
	}
}

func TestPagedGrowsPerPage(t *testing.T) {
	a := NewAllocator(Paged, 0)
	f, _ := a.NewFrame(1366)
	base := f.LocalBytes()
	for i := 0; i < PageCells; i++ {
		f.Append(cellPattern(i))
	}
	if f.LocalBytes() != base+pageBytes {
		t.Fatalf("one page of cells grew %d, want %d", f.LocalBytes()-base, pageBytes)
	}
	f.Append(cellPattern(PageCells))
	if f.LocalBytes() != base+2*pageBytes {
		t.Fatal("second page not allocated on boundary crossing")
	}
}

func TestPagedRecyclesReleasedPages(t *testing.T) {
	a := NewAllocator(Paged, 0)
	f, _ := a.NewFrame(1366)
	for i := 0; i < 2*PageCells; i++ {
		f.Append(cellPattern(i))
	}
	f.Release()
	cell := cellPattern(1000)
	allocs := testing.AllocsPerRun(100, func() {
		g, _ := a.NewFrame(1366)
		for i := 0; i < 2*PageCells; i++ {
			g.Append(cell)
		}
		g.Release()
	})
	// The frame record, its page row and both pages come off the free
	// lists.
	if allocs != 0 {
		t.Fatalf("%v allocs per two-page frame, want 0", allocs)
	}
	g, _ := a.NewFrame(1366)
	for i := 0; i < PageCells+1; i++ {
		g.Append(cellPattern(2000 + i))
	}
	for i := 0; i < PageCells+1; i++ {
		if p, _, _ := g.Cell(i); !bytes.Equal(p, cellPattern(2000+i)) {
			t.Fatalf("cell %d reads stale data from a recycled page", i)
		}
	}
	if _, _, err := g.Cell(PageCells + 1); !errors.Is(err, ErrBadIndex) {
		t.Fatalf("unwritten slot of a recycled page readable: %v", err)
	}
	g.Release()
	g.Release() // a second Release is a no-op
	if a.Used() != 0 {
		t.Fatalf("%d bytes leaked after release", a.Used())
	}
	h1, _ := a.NewFrame(1366)
	h2, _ := a.NewFrame(1366)
	if h1 == h2 {
		t.Fatal("a frame released twice was handed out twice")
	}
}

func TestHostMemLocalFootprintConstant(t *testing.T) {
	a := NewAllocator(HostMem, 0)
	f, _ := a.NewFrame(1366)
	base := f.LocalBytes()
	for i := 0; i < 200; i++ {
		f.Append(cellPattern(i))
	}
	if f.LocalBytes() != base {
		t.Fatal("hostmem local footprint grew with cells")
	}
	if f.HostBytes() != 200*CellPayload {
		t.Fatalf("HostBytes = %d", f.HostBytes())
	}
}

func TestMemoryShapeE7(t *testing.T) {
	// The E7 ordering for a small (2-cell) frame on a 1366-cell-capable
	// VC: hostmem < linked < paged << contig local memory.
	use := func(org Organization) int {
		a := NewAllocator(org, 0)
		f, _ := a.NewFrame(1366)
		f.Append(cellPattern(0))
		f.Append(cellPattern(1))
		return f.LocalBytes()
	}
	h, l, p, c := use(HostMem), use(Linked), use(Paged), use(Contig)
	if !(l < p && p < c && h < p) {
		t.Fatalf("small-frame memory ordering broken: host %d, linked %d, paged %d, contig %d", h, l, p, c)
	}
	// For a full-size frame, linked overtakes contig (pointer tax).
	useFull := func(org Organization) int {
		a := NewAllocator(org, 0)
		f, _ := a.NewFrame(1366)
		for i := 0; i < 1366; i++ {
			f.Append(cellPattern(i))
		}
		return f.LocalBytes()
	}
	if useFull(Linked) <= useFull(Contig) {
		t.Fatal("full-frame: linked should exceed contig (per-cell pointer overhead)")
	}
	// HostMem's local footprint is constant regardless of frame size —
	// its defining property for end systems.
	if useFull(HostMem) != h {
		t.Fatal("hostmem local footprint varied with frame size")
	}
}

func TestRandomAccessCostShape(t *testing.T) {
	// Linked random access grows with index; contig and paged are flat.
	a := NewAllocator(Linked, 0)
	f, _ := a.NewFrame(512)
	for i := 0; i < 512; i++ {
		f.Append(cellPattern(i))
	}
	_, cFirst, _ := f.Cell(0)
	_, cLast, _ := f.Cell(511)
	if cLast <= cFirst {
		t.Fatal("linked random access cost did not grow")
	}
	for _, org := range []Organization{Contig, Paged} {
		a := NewAllocator(org, 0)
		f, _ := a.NewFrame(512)
		for i := 0; i < 512; i++ {
			f.Append(cellPattern(i))
		}
		_, c0, _ := f.Cell(0)
		_, c511, _ := f.Cell(511)
		if c0 != c511 {
			t.Fatalf("%v: random access not constant time", org)
		}
	}
}

func TestAllocatorBudgetEnforced(t *testing.T) {
	// Budget fits the frame overhead plus a few linked nodes only.
	a := NewAllocator(Linked, FrameOverheadBytes(Linked, 100)+3*linkedNodeBytes)
	f, err := a.NewFrame(100)
	if err != nil {
		t.Fatal(err)
	}
	var sawErr error
	for i := 0; i < 10; i++ {
		if _, err := f.Append(cellPattern(i)); err != nil {
			sawErr = err
			break
		}
	}
	if !errors.Is(sawErr, ErrNoMemory) {
		t.Fatalf("err = %v, want ErrNoMemory", sawErr)
	}
}

func TestAllocatorPeakTracksHighWater(t *testing.T) {
	a := NewAllocator(Linked, 0)
	f, _ := a.NewFrame(10)
	for i := 0; i < 10; i++ {
		f.Append(cellPattern(i))
	}
	peak := a.Peak()
	f.Release()
	if a.Used() != 0 {
		t.Fatal("release leaked")
	}
	if a.Peak() != peak {
		t.Fatal("peak reset by release")
	}
}

func TestConcurrentFramesShareBudget(t *testing.T) {
	a := NewAllocator(Contig, 2*(FrameOverheadBytes(Contig, 10)+10*CellPayload))
	if _, err := a.NewFrame(10); err != nil {
		t.Fatal(err)
	}
	if _, err := a.NewFrame(10); err != nil {
		t.Fatal(err)
	}
	if _, err := a.NewFrame(10); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("third frame err = %v, want ErrNoMemory", err)
	}
}

func TestZeroMaxCellsRejected(t *testing.T) {
	a := NewAllocator(Linked, 0)
	if _, err := a.NewFrame(0); err == nil {
		t.Fatal("NewFrame(0) succeeded")
	}
}

func TestOrganizationString(t *testing.T) {
	want := map[Organization]string{Linked: "linked", Contig: "contig", Paged: "paged", HostMem: "hostmem"}
	for org, s := range want {
		if org.String() != s {
			t.Errorf("%d.String() = %q, want %q", org, org.String(), s)
		}
	}
	if Organization(99).String() != "Organization(99)" {
		t.Error("unknown organization string")
	}
}

// Property: every organization stores and returns identical bytes for any
// cell sequence, and releases exactly what it reserved.
func TestPropertyIntegrityAndAccounting(t *testing.T) {
	f := func(nCells uint8, orgPick uint8) bool {
		n := int(nCells)%200 + 1
		org := Organizations()[int(orgPick)%4]
		a := NewAllocator(org, 0)
		fr, err := a.NewFrame(n)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if _, err := fr.Append(cellPattern(i)); err != nil {
				return false
			}
		}
		for i := 0; i < n; i++ {
			p, _, err := fr.Cell(i)
			if err != nil || !bytes.Equal(p, cellPattern(i)) {
				return false
			}
		}
		fr.Release()
		return a.Used() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAppendLinked(b *testing.B)  { benchAppend(b, Linked) }
func BenchmarkAppendContig(b *testing.B)  { benchAppend(b, Contig) }
func BenchmarkAppendPaged(b *testing.B)   { benchAppend(b, Paged) }
func BenchmarkAppendHostMem(b *testing.B) { benchAppend(b, HostMem) }

func benchAppend(b *testing.B, org Organization) {
	a := NewAllocator(org, 0)
	p := cellPattern(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, _ := a.NewFrame(192)
		for j := 0; j < 192; j++ {
			f.Append(p)
		}
		f.Release()
	}
}
