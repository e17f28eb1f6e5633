// Package bufmgr models the adapter SRAM that the reassembly-buffer
// organizations of a host interface pin for partially reassembled frames,
// and the engine cycles each organization charges per cell.
//
// The receive engine touches this structure once per cell, so its append
// cost is on the per-cell critical path, while its memory footprint decides
// how many simultaneous VCs a fixed-size adapter SRAM supports.  Experiment
// E7 tabulates both across four organizations:
//
//   - linked: a list node per cell — no per-frame reservation, costly
//     random access (walk), per-cell pointer overhead;
//   - contig: one maximal contiguous block per frame — constant-time
//     everything, massive reservation (a 1366-cell frame's worth per VC);
//   - paged: fixed-size multi-cell containers chained through a page row —
//     constant-time access via the row, reservation in page quanta;
//   - hostmem: control state in adapter SRAM, payload DMA'd straight to
//     host memory — near-zero adapter memory, but every access crosses the
//     bus (the end-system zero-copy organization).
//
// The package is accounting only: a Frame counts cells, bytes pinned and
// cycles charged, and holds no payload. The bytes the host receives live
// in the AAL reassembler, so the simulated receiver keeps one copy of each
// frame, as the adapter's SRAM did.
package bufmgr

import (
	"errors"
	"fmt"
)

// CellPayload is the stored unit: one cell's 48 payload bytes.
const CellPayload = 48

// Organization names a buffer strategy.
type Organization uint8

const (
	// Linked is a per-cell linked list.
	Linked Organization = iota
	// Contig is one contiguous maximal block per frame.
	Contig
	// Paged is fixed-size containers addressed through a page row: the
	// board's organization.
	Paged
	// HostMem keeps payload in host memory, control locally.
	HostMem
)

// String implements fmt.Stringer.
func (o Organization) String() string {
	switch o {
	case Linked:
		return "linked"
	case Contig:
		return "contig"
	case Paged:
		return "paged"
	case HostMem:
		return "hostmem"
	default:
		return fmt.Sprintf("Organization(%d)", uint8(o))
	}
}

// Organizations lists every strategy, in report order.
func Organizations() []Organization { return []Organization{Linked, Contig, Paged, HostMem} }

// Costs in engine cycles. These are the assembly-level estimates the E7
// table is computed from; see DESIGN.md for the counting conventions.
const (
	linkedAppendCycles = 8 // alloc from free list, store payload ptr, link
	linkedWalkCycles   = 3 // per node traversed on random access

	contigAppendCycles = 3 // indexed store: base + idx*48
	contigAccessCycles = 3

	pagedAppendCycles  = 5 // page-row index, bounds check, store
	pagedNewPageCycles = 9 // allocate container, link into row
	pagedAccessCycles  = 5

	// HostMem appends build a DMA descriptor and keep local bookkeeping;
	// the bus time is charged by the caller, which knows the bus. Random
	// access from the engine crosses the bus, so E7 shows it as costly.
	hostAppendCycles = 4 + 2
	hostAccessCycles = 40
)

// PageCells is the container size (cells per page) for the Paged strategy.
const PageCells = 32

// SRAM a linked node and a page pin.
const (
	linkedNodeBytes = CellPayload + 4           // payload + next pointer + flags
	pageBytes       = PageCells*CellPayload + 4 // payload slots + valid bitmap word
)

// Errors.
var (
	ErrFrameFull = errors.New("bufmgr: frame exceeds allocated cells")
	ErrNoMemory  = errors.New("bufmgr: adapter memory exhausted")
	ErrBadIndex  = errors.New("bufmgr: cell index out of range")
)

// Allocator is a bounded adapter-SRAM budget shared by all frames of an
// organization instance.
type Allocator struct {
	org      Organization
	capacity int
	used     int
	peak     int

	// freeFrames recycles released frame records.
	freeFrames []*Frame
}

// NewAllocator returns an allocator for org with the given adapter SRAM
// budget in bytes (0 = unlimited, for pure cost studies).
func NewAllocator(org Organization, capacityBytes int) *Allocator {
	if org > HostMem {
		panic("bufmgr: unknown organization")
	}
	return &Allocator{org: org, capacity: capacityBytes}
}

// Used returns currently pinned adapter bytes.
func (a *Allocator) Used() int { return a.used }

// Peak returns the high-water mark.
func (a *Allocator) Peak() int { return a.peak }

func (a *Allocator) reserve(n int) error {
	if a.capacity > 0 && a.used+n > a.capacity {
		return ErrNoMemory
	}
	a.used += n
	if a.used > a.peak {
		a.peak = a.used
	}
	return nil
}

func (a *Allocator) release(n int) {
	a.used -= n
	if a.used < 0 {
		panic("bufmgr: allocator underflow")
	}
}

// FrameOverheadBytes returns the per-frame fixed local overhead E7 tabulates
// (descriptor, valid bitmap, window state).
func FrameOverheadBytes(org Organization, maxCells int) int {
	switch org {
	case Linked:
		return 16 // head/tail pointers, counts
	case Contig:
		return 16 + (maxCells+7)/8 // descriptor + valid bitmap
	case Paged:
		return 16 + 4*((maxCells+PageCells-1)/PageCells) // descriptor + page row
	case HostMem:
		return 24 + (maxCells+7)/8 // descriptor + host addr + valid bitmap
	default:
		return 0
	}
}

// Frame is an in-progress reassembly buffer: the adapter SRAM it pins and
// the cells it has counted.
type Frame struct {
	alloc    *Allocator // nil once released
	org      Organization
	n        int // cells appended
	maxCells int
	local    int // adapter-SRAM bytes pinned
}

// NewFrame starts a frame that may grow to maxCells cells. The contiguous
// organization reserves the whole frame here; the others reserve their
// overhead and grow per cell (linked) or per page (paged).
func (a *Allocator) NewFrame(maxCells int) (*Frame, error) {
	if maxCells <= 0 {
		return nil, ErrBadIndex
	}
	pin := FrameOverheadBytes(a.org, maxCells)
	if a.org == Contig {
		pin += maxCells * CellPayload
	}
	if err := a.reserve(pin); err != nil {
		return nil, err
	}
	var f *Frame
	if n := len(a.freeFrames); n > 0 {
		f = a.freeFrames[n-1]
		a.freeFrames[n-1] = nil
		a.freeFrames = a.freeFrames[:n-1]
	} else {
		f = &Frame{}
	}
	*f = Frame{alloc: a, org: a.org, maxCells: maxCells, local: pin}
	return f, nil
}

// Append accounts for the next cell, returning the engine cycles charged.
func (f *Frame) Append() (cycles int, err error) {
	if f.n == f.maxCells {
		return 0, ErrFrameFull
	}
	switch f.org {
	case Linked:
		if err := f.alloc.reserve(linkedNodeBytes); err != nil {
			return 0, err
		}
		f.local += linkedNodeBytes
		cycles = linkedAppendCycles
	case Contig:
		cycles = contigAppendCycles
	case Paged:
		cycles = pagedAppendCycles
		if f.n%PageCells == 0 {
			if err := f.alloc.reserve(pageBytes); err != nil {
				return 0, err
			}
			f.local += pageBytes
			cycles += pagedNewPageCycles
		}
	case HostMem:
		cycles = hostAppendCycles
	}
	f.n++
	return cycles, nil
}

// Access returns the engine cycles a random access to stored cell i costs
// (reassembly only appends, but end-of-packet processing and the host
// hand-off read back).
func (f *Frame) Access(i int) (cycles int, err error) {
	if i < 0 || i >= f.n {
		return 0, ErrBadIndex
	}
	switch f.org {
	case Linked:
		return linkedWalkCycles * (i + 1), nil
	case Contig:
		return contigAccessCycles, nil
	case Paged:
		return pagedAccessCycles, nil
	default:
		return hostAccessCycles, nil
	}
}

// LocalBytes reports adapter-SRAM bytes this frame currently pins. A
// contiguous frame pins its whole reservation for its lifetime: that is
// the strategy's defining cost.
func (f *Frame) LocalBytes() int { return f.local }

// HostBytes reports host-memory bytes (nonzero only for HostMem).
func (f *Frame) HostBytes() int {
	if f.org == HostMem {
		return f.n * CellPayload
	}
	return 0
}

// Release returns the frame's memory to the allocator and the record to
// its free list. A second Release of the same frame is a no-op until
// NewFrame hands it out again.
func (f *Frame) Release() {
	a := f.alloc
	if a == nil {
		return
	}
	a.release(f.local)
	*f = Frame{}
	a.freeFrames = append(a.freeFrames, f)
}
