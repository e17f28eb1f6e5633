package bufmgr

// ---------------------------------------------------------------------------
// Linked list of per-cell nodes.

// linkedNodeBytes is payload + next pointer + flags, the SRAM a node pins.
const linkedNodeBytes = CellPayload + 4

type linkedNode struct {
	payload [CellPayload]byte
	next    *linkedNode
}

type linkedFrame struct {
	alloc      *Allocator
	head, tail *linkedNode
	n          int
	maxCells   int
	overhead   int
}

func newLinkedFrame(a *Allocator, maxCells int) (Frame, error) {
	ov := FrameOverheadBytes(Linked, maxCells)
	if err := a.reserve(ov); err != nil {
		return nil, err
	}
	return &linkedFrame{alloc: a, maxCells: maxCells, overhead: ov}, nil
}

func (f *linkedFrame) Append(p []byte) (int, error) {
	if f.n == f.maxCells {
		return 0, ErrFrameFull
	}
	if err := f.alloc.reserve(linkedNodeBytes); err != nil {
		return 0, err
	}
	node := &linkedNode{}
	copy(node.payload[:], p)
	if f.tail == nil {
		f.head, f.tail = node, node
	} else {
		f.tail.next = node
		f.tail = node
	}
	f.n++
	return linkedAppendCycles, nil
}

func (f *linkedFrame) Cell(i int) ([]byte, int, error) {
	if i < 0 || i >= f.n {
		return nil, 0, ErrBadIndex
	}
	node := f.head
	for j := 0; j < i; j++ {
		node = node.next
	}
	return node.payload[:], linkedWalkCycles * (i + 1), nil
}

func (f *linkedFrame) Cells() int { return f.n }

func (f *linkedFrame) LocalBytes() int { return f.overhead + f.n*linkedNodeBytes }

func (f *linkedFrame) HostBytes() int { return 0 }

func (f *linkedFrame) Release() {
	f.alloc.release(f.LocalBytes())
	f.head, f.tail, f.n = nil, nil, 0
	f.overhead = 0
}

// ---------------------------------------------------------------------------
// Contiguous maximal block per frame.

type contigFrame struct {
	alloc    *Allocator
	buf      []byte
	n        int
	maxCells int
	overhead int
}

func newContigFrame(a *Allocator, maxCells int) (Frame, error) {
	ov := FrameOverheadBytes(Contig, maxCells)
	total := ov + maxCells*CellPayload
	if err := a.reserve(total); err != nil {
		return nil, err
	}
	return &contigFrame{alloc: a, buf: make([]byte, maxCells*CellPayload),
		maxCells: maxCells, overhead: ov}, nil
}

func (f *contigFrame) Append(p []byte) (int, error) {
	if f.n == f.maxCells {
		return 0, ErrFrameFull
	}
	copy(f.buf[f.n*CellPayload:], p)
	f.n++
	return contigAppendCycles, nil
}

func (f *contigFrame) Cell(i int) ([]byte, int, error) {
	if i < 0 || i >= f.n {
		return nil, 0, ErrBadIndex
	}
	return f.buf[i*CellPayload : (i+1)*CellPayload], contigAccessCycles, nil
}

func (f *contigFrame) Cells() int { return f.n }

// LocalBytes: the whole reservation is pinned for the frame's lifetime —
// that is the strategy's defining cost.
func (f *contigFrame) LocalBytes() int { return f.overhead + f.maxCells*CellPayload }

func (f *contigFrame) HostBytes() int { return 0 }

func (f *contigFrame) Release() {
	f.alloc.release(f.LocalBytes())
	f.buf, f.n, f.maxCells, f.overhead = nil, 0, 0, 0
}

// ---------------------------------------------------------------------------
// Paged containers.

const pageBytes = PageCells*CellPayload + 4 // payload slots + valid bitmap word

type pagedFrame struct {
	alloc    *Allocator
	pages    [][]byte
	n        int
	maxCells int
	overhead int
}

func newPagedFrame(a *Allocator, maxCells int) (Frame, error) {
	ov := FrameOverheadBytes(Paged, maxCells)
	if err := a.reserve(ov); err != nil {
		return nil, err
	}
	var f *pagedFrame
	if n := len(a.freeFrames); n > 0 {
		f = a.freeFrames[n-1]
		a.freeFrames[n-1] = nil
		a.freeFrames = a.freeFrames[:n-1]
	} else {
		f = &pagedFrame{}
	}
	f.alloc, f.maxCells, f.overhead = a, maxCells, ov
	return f, nil
}

func (f *pagedFrame) Append(p []byte) (int, error) {
	if f.n == f.maxCells {
		return 0, ErrFrameFull
	}
	cycles := pagedAppendCycles
	page := f.n / PageCells
	if page == len(f.pages) {
		if err := f.alloc.reserve(pageBytes); err != nil {
			return 0, err
		}
		f.pages = append(f.pages, f.alloc.page())
		cycles += pagedNewPageCycles
	}
	off := (f.n % PageCells) * CellPayload
	copy(f.pages[page][off:], p)
	f.n++
	return cycles, nil
}

func (f *pagedFrame) Cell(i int) ([]byte, int, error) {
	if i < 0 || i >= f.n {
		return nil, 0, ErrBadIndex
	}
	page, off := i/PageCells, (i%PageCells)*CellPayload
	return f.pages[page][off : off+CellPayload], pagedAccessCycles, nil
}

func (f *pagedFrame) Cells() int { return f.n }

func (f *pagedFrame) LocalBytes() int { return f.overhead + len(f.pages)*pageBytes }

func (f *pagedFrame) HostBytes() int { return 0 }

// Release returns the pages to the allocator's free list and the frame
// record, with its emptied page row, to the frame free list. A second
// Release of the same frame is a no-op until NewFrame hands it out again.
func (f *pagedFrame) Release() {
	a := f.alloc
	if a == nil {
		return
	}
	a.release(f.LocalBytes())
	a.freePages = append(a.freePages, f.pages...)
	clear(f.pages)
	f.alloc, f.pages, f.n, f.overhead = nil, f.pages[:0], 0, 0
	a.freeFrames = append(a.freeFrames, f)
}

// page returns a container's payload storage, recycled when one is free.
func (a *Allocator) page() []byte {
	if n := len(a.freePages); n > 0 {
		p := a.freePages[n-1]
		a.freePages[n-1] = nil
		a.freePages = a.freePages[:n-1]
		return p
	}
	return make([]byte, PageCells*CellPayload)
}

// ---------------------------------------------------------------------------
// Host memory: payload leaves the adapter immediately.

type hostFrame struct {
	alloc    *Allocator
	buf      []byte // models the host-resident buffer
	n        int
	maxCells int
	overhead int
}

func newHostFrame(a *Allocator, maxCells int) (Frame, error) {
	ov := FrameOverheadBytes(HostMem, maxCells)
	if err := a.reserve(ov); err != nil {
		return nil, err
	}
	return &hostFrame{alloc: a, buf: make([]byte, maxCells*CellPayload),
		maxCells: maxCells, overhead: ov}, nil
}

func (f *hostFrame) Append(p []byte) (int, error) {
	if f.n == f.maxCells {
		return 0, ErrFrameFull
	}
	copy(f.buf[f.n*CellPayload:], p)
	f.n++
	// Engine cost only; the DMA bus time is charged by the caller, which
	// knows the bus. That separation keeps this a pure engine-cycle model.
	return hostAppendCycles + hostLocalBookkeep, nil
}

func (f *hostFrame) Cell(i int) ([]byte, int, error) {
	if i < 0 || i >= f.n {
		return nil, 0, ErrBadIndex
	}
	// Random access from the engine would cross the bus; charge the
	// engine-side cost. (E7 footnotes that HostMem random access is
	// effectively unavailable to the engine — reflected as a high cost.)
	return f.buf[i*CellPayload : (i+1)*CellPayload], 40, nil
}

func (f *hostFrame) Cells() int { return f.n }

func (f *hostFrame) LocalBytes() int { return f.overhead }

func (f *hostFrame) HostBytes() int { return f.n * CellPayload }

func (f *hostFrame) Release() {
	f.alloc.release(f.overhead)
	f.buf, f.n, f.overhead = nil, 0, 0
}
