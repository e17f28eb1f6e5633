// Package bufmgr implements and costs the reassembly-buffer organizations a
// host interface can use to hold the cells of partially reassembled frames.
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
// Each strategy is a real store (bytes in, bytes out) plus a cycle ledger,
// so tests can verify integrity and experiments can read costs.
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
	// DefaultOrg is the zero value: "no preference", resolved to Paged (the
	// board's organization) wherever an Organization is consumed. Holding
	// the zero value keeps option structs embedding an Organization honest —
	// an unset field means the default, and explicitly selecting Linked is
	// distinguishable from leaving the field alone.
	DefaultOrg Organization = iota
	// Linked is a per-cell linked list.
	Linked
	// Contig is one contiguous maximal block per frame.
	Contig
	// Paged is fixed-size containers addressed through a page row.
	Paged
	// HostMem keeps payload in host memory, control locally.
	HostMem
)

// Resolve maps DefaultOrg to the concrete default organization (Paged),
// returning every other value unchanged.
func (o Organization) Resolve() Organization {
	if o == DefaultOrg {
		return Paged
	}
	return o
}

// String implements fmt.Stringer.
func (o Organization) String() string {
	switch o {
	case DefaultOrg:
		return "default"
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
	hostAppendCycles   = 4 // build DMA descriptor; bus time charged elsewhere
	hostLocalBookkeep  = 2
)

// PageCells is the container size (cells per page) for the Paged strategy.
const PageCells = 32

// Errors.
var (
	ErrFrameFull = errors.New("bufmgr: frame exceeds allocated cells")
	ErrNoMemory  = errors.New("bufmgr: adapter memory exhausted")
	ErrBadIndex  = errors.New("bufmgr: cell index out of range")
)

// Frame is an in-progress reassembly buffer.
type Frame interface {
	// Append stores the next cell's payload, returning the engine cycles
	// charged.
	Append(payload []byte) (cycles int, err error)
	// Cell returns a stored cell's payload and the cycles the random
	// access cost (retransmission-free reassembly only appends, but EOP
	// processing and host hand-off read back).
	Cell(i int) (payload []byte, cycles int, err error)
	// Cells returns the number of stored cells.
	Cells() int
	// LocalBytes reports adapter-SRAM bytes this frame currently pins.
	LocalBytes() int
	// HostBytes reports host-memory bytes (nonzero only for HostMem).
	HostBytes() int
	// Release returns all memory to the allocator.
	Release()
}

// Allocator is a bounded adapter-SRAM budget shared by all frames of an
// organization instance.
type Allocator struct {
	org      Organization
	capacity int
	used     int
	peak     int

	// freePages recycles released Paged containers: a frame's payload is
	// never read after Release, so the next frame can reuse the storage.
	// freeFrames recycles the released frame records with their page rows.
	freePages  [][]byte
	freeFrames []*pagedFrame
}

// NewAllocator returns an allocator for org with the given adapter SRAM
// budget in bytes (0 = unlimited, for pure cost studies).
func NewAllocator(org Organization, capacityBytes int) *Allocator {
	return &Allocator{org: org.Resolve(), capacity: capacityBytes}
}

// Organization returns the allocator's strategy.
func (a *Allocator) Organization() Organization { return a.org }

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

// NewFrame starts a frame that may grow to maxCells cells.
func (a *Allocator) NewFrame(maxCells int) (Frame, error) {
	if maxCells <= 0 {
		return nil, ErrBadIndex
	}
	switch a.org {
	case Linked:
		return newLinkedFrame(a, maxCells)
	case Contig:
		return newContigFrame(a, maxCells)
	case Paged:
		return newPagedFrame(a, maxCells)
	case HostMem:
		return newHostFrame(a, maxCells)
	default:
		panic("bufmgr: unknown organization")
	}
}

// FrameOverheadBytes returns the per-frame fixed local overhead E7 tabulates
// (descriptor, valid bitmap, window state), matching the implementations.
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
