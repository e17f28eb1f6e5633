package bufmgr

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestAppendAndReadBackAllOrganizations(t *testing.T) {
	for _, org := range Organizations() {
		a := NewAllocator(org, 0)
		f, err := a.NewFrame(100)
		if err != nil {
			t.Fatalf("%v: %v", org, err)
		}
		for i := 0; i < 100; i++ {
			cycles, err := f.Append()
			if err != nil {
				t.Fatalf("%v: append %d: %v", org, i, err)
			}
			if cycles <= 0 {
				t.Fatalf("%v: free append", org)
			}
		}
		if f.n != 100 {
			t.Fatalf("%v: Cells = %d", org, f.n)
		}
		for i := 0; i < 100; i++ {
			cycles, err := f.Access(i)
			if err != nil {
				t.Fatalf("%v: cell %d: %v", org, i, err)
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
		f.Append()
		f.Append()
		if _, err := f.Append(); !errors.Is(err, ErrFrameFull) {
			t.Fatalf("%v: err = %v, want ErrFrameFull", org, err)
		}
	}
}

func TestBadIndexRejected(t *testing.T) {
	for _, org := range Organizations() {
		a := NewAllocator(org, 0)
		f, _ := a.NewFrame(4)
		f.Append()
		for _, i := range []int{-1, 1, 4} {
			if _, err := f.Access(i); !errors.Is(err, ErrBadIndex) {
				t.Fatalf("%v: Access(%d) err = %v", org, i, err)
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
	f.Append()
	if a.Used() != before {
		t.Fatal("contig reservation grew on append")
	}
}

func TestLinkedGrowsPerCell(t *testing.T) {
	a := NewAllocator(Linked, 0)
	f, _ := a.NewFrame(1366)
	base := f.LocalBytes()
	f.Append()
	if f.LocalBytes() != base+linkedNodeBytes {
		t.Fatalf("linked grew by %d, want %d", f.LocalBytes()-base, linkedNodeBytes)
	}
}

func TestPagedGrowsPerPage(t *testing.T) {
	a := NewAllocator(Paged, 0)
	f, _ := a.NewFrame(1366)
	base := f.LocalBytes()
	for i := 0; i < PageCells; i++ {
		f.Append()
	}
	if f.LocalBytes() != base+pageBytes {
		t.Fatalf("one page of cells grew %d, want %d", f.LocalBytes()-base, pageBytes)
	}
	f.Append()
	if f.LocalBytes() != base+2*pageBytes {
		t.Fatal("second page not allocated on boundary crossing")
	}
}

func TestPagedRecyclesReleasedPages(t *testing.T) {
	// The budget holds one two-page frame: the second frame fits only
	// because the first one's pages went back to the SRAM.
	a := NewAllocator(Paged, FrameOverheadBytes(Paged, 1366)+2*pageBytes)
	f, _ := a.NewFrame(1366)
	for i := 0; i < 2*PageCells; i++ {
		if _, err := f.Append(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Append(); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("third page: err = %v, want ErrNoMemory", err)
	}
	f.Release()
	allocs := testing.AllocsPerRun(100, func() {
		g, _ := a.NewFrame(1366)
		for i := 0; i < 2*PageCells; i++ {
			if _, err := g.Append(); err != nil {
				t.Fatal(err)
			}
		}
		g.Release()
	})
	// The frame record comes off the free list.
	if allocs != 0 {
		t.Fatalf("%v allocs per two-page frame, want 0", allocs)
	}
	g, _ := a.NewFrame(1366)
	for i := 0; i < PageCells+1; i++ {
		g.Append()
	}
	if g.n != PageCells+1 || g.LocalBytes() != FrameOverheadBytes(Paged, 1366)+2*pageBytes {
		t.Fatalf("recycled record holds %d cells in %d bytes", g.n, g.LocalBytes())
	}
	if _, err := g.Access(PageCells + 1); !errors.Is(err, ErrBadIndex) {
		t.Fatalf("unwritten slot of a recycled record accessible: %v", err)
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
		f.Append()
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
		f.Append()
		f.Append()
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
			f.Append()
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
		f.Append()
	}
	cFirst, _ := f.Access(0)
	cLast, _ := f.Access(511)
	if cLast <= cFirst {
		t.Fatal("linked random access cost did not grow")
	}
	for _, org := range []Organization{Contig, Paged} {
		a := NewAllocator(org, 0)
		f, _ := a.NewFrame(512)
		for i := 0; i < 512; i++ {
			f.Append()
		}
		c0, _ := f.Access(0)
		c511, _ := f.Access(511)
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
		if _, err := f.Append(); err != nil {
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
		f.Append()
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

// localBytes is each organization's adapter footprint for n stored cells
// of a maxCells frame, in closed form.
func localBytes(org Organization, maxCells, n int) int {
	ov := FrameOverheadBytes(org, maxCells)
	switch org {
	case Linked:
		return ov + n*linkedNodeBytes
	case Contig:
		return ov + maxCells*CellPayload
	case Paged:
		return ov + (n+PageCells-1)/PageCells*pageBytes
	default:
		return ov
	}
}

// Property: for any frame size, every organization counts each appended
// cell, pins exactly its closed-form footprint, allows access to the
// stored cells only, and releases exactly what it reserved.
func TestPropertyIntegrityAndAccounting(t *testing.T) {
	f := func(nCells, extra uint8, orgPick uint8) bool {
		n := int(nCells)%200 + 1
		maxCells := n + int(extra)
		org := Organizations()[int(orgPick)%4]
		a := NewAllocator(org, 0)
		fr, err := a.NewFrame(maxCells)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if _, err := fr.Append(); err != nil {
				return false
			}
		}
		for i := 0; i < n; i++ {
			if c, err := fr.Access(i); err != nil || c <= 0 {
				return false
			}
		}
		if _, err := fr.Access(n); !errors.Is(err, ErrBadIndex) {
			return false
		}
		want, wantHost := localBytes(org, maxCells, n), 0
		if org == HostMem {
			wantHost = n * CellPayload
		}
		if fr.n != n || fr.LocalBytes() != want || a.Used() != want || fr.HostBytes() != wantHost {
			return false
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
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, _ := a.NewFrame(192)
		for j := 0; j < 192; j++ {
			f.Append()
		}
		f.Release()
	}
}
