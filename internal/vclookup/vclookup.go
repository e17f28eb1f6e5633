// Package vclookup models the receive path's first per-cell job: mapping
// the 24-bit VPI/VCI in an arriving cell header to the small integer index
// of its reassembly state.
//
// The board did this with a content-addressable memory; the interesting
// design question the paper's analysis raises is what that CAM buys over
// doing the lookup in engine firmware.  Three strategies are modelled, each
// reporting the engine cycles a lookup costs so experiment E6 can plot
// cycles-per-cell against the number of active VCs:
//
//   - CAM: fixed-cost hardware associative match, bounded capacity;
//   - Linear: firmware scan of a connection table (the dumbest firmware);
//   - Hash: firmware open-addressing hash (the realistic firmware).
package vclookup

import (
	"errors"
	"fmt"

	"repro/internal/atm"
)

// Errors returned by Insert.
var (
	ErrFull      = errors.New("vclookup: table full")
	ErrDuplicate = errors.New("vclookup: VC already present")
)

// Strategy is a VC→index map with cycle accounting.
type Strategy interface {
	// Name identifies the strategy in reports.
	Name() string
	// Insert registers a VC and returns its stable index.
	Insert(vc atm.VC) (int, error)
	// Remove deletes a VC; removing an absent VC is a no-op.
	Remove(vc atm.VC)
	// Lookup returns the index for vc and the engine cycles the lookup
	// consumed. ok is false for unknown VCs (the cell will be dropped),
	// which still costs cycles.
	Lookup(vc atm.VC) (idx int, cycles int, ok bool)
	// Len reports the number of registered VCs.
	Len() int
	// Cap reports the maximum table size.
	Cap() int
}

// ---------------------------------------------------------------------------
// CAM

// camCycles is the fixed engine cost to use the CAM: write the key register,
// wait one match cycle, read the index register.
const camCycles = 3

// CAM models a hardware content-addressable memory of fixed capacity. Its
// match store is a Table sized for the capacity, so a match never grows it.
type CAM struct {
	match Table
	inUse []bool
	free  int // every index below free is in use
}

// NewCAM returns a CAM with the given number of entries (the board-class
// part held 256).
func NewCAM(capacity int) *CAM {
	if capacity <= 0 {
		panic(fmt.Sprintf("vclookup: invalid CAM capacity %d", capacity))
	}
	c := &CAM{inUse: make([]bool, capacity)}
	c.match.resize(capacity)
	return c
}

// Name implements Strategy.
func (c *CAM) Name() string { return "cam" }

// Len implements Strategy.
func (c *CAM) Len() int { return c.match.Len() }

// Cap implements Strategy.
func (c *CAM) Cap() int { return len(c.inUse) }

// Insert implements Strategy. The VC gets the lowest free index.
func (c *CAM) Insert(vc atm.VC) (int, error) {
	if _, dup := c.match.Get(vc); dup {
		return 0, ErrDuplicate
	}
	for i := c.free; i < len(c.inUse); i++ {
		if !c.inUse[i] {
			c.inUse[i] = true
			c.free = i + 1
			c.match.Put(vc, int32(i))
			return i, nil
		}
	}
	c.free = len(c.inUse)
	return 0, ErrFull
}

// Remove implements Strategy.
func (c *CAM) Remove(vc atm.VC) {
	if i, ok := c.match.Get(vc); ok {
		c.inUse[i] = false
		c.free = min(c.free, int(i))
		c.match.Delete(vc)
	}
}

// Lookup implements Strategy. Hardware match: constant cycles regardless of
// occupancy — the flat line in E6.
func (c *CAM) Lookup(vc atm.VC) (int, int, bool) {
	i, ok := c.match.Get(vc)
	return int(i), camCycles, ok
}

// ---------------------------------------------------------------------------
// Linear table scan

// Per-probe firmware cost: load entry key, compare VPI/VCI packed word,
// conditional branch, increment pointer.
const (
	linearSetupCycles = 2
	linearProbeCycles = 4
)

// Linear is a firmware linear scan over a dense connection table.
type Linear struct {
	entries []linEntry
	cap     int
}

type linEntry struct {
	vc  atm.VC
	idx int
}

// NewLinear returns a linear-scan table.
func NewLinear(capacity int) *Linear {
	if capacity <= 0 {
		panic("vclookup: invalid capacity")
	}
	return &Linear{cap: capacity}
}

// Name implements Strategy.
func (l *Linear) Name() string { return "linear" }

// Len implements Strategy.
func (l *Linear) Len() int { return len(l.entries) }

// Cap implements Strategy.
func (l *Linear) Cap() int { return l.cap }

// Insert implements Strategy.
func (l *Linear) Insert(vc atm.VC) (int, error) {
	for _, e := range l.entries {
		if e.vc == vc {
			return 0, ErrDuplicate
		}
	}
	if len(l.entries) == l.cap {
		return 0, ErrFull
	}
	idx := len(l.entries)
	l.entries = append(l.entries, linEntry{vc: vc, idx: idx})
	return idx, nil
}

// Remove implements Strategy. Indices of other entries are preserved (the
// reassembly state they point at must not move).
func (l *Linear) Remove(vc atm.VC) {
	for i, e := range l.entries {
		if e.vc == vc {
			l.entries = append(l.entries[:i], l.entries[i+1:]...)
			return
		}
	}
}

// Lookup implements Strategy: cost grows with the entry's position, and a
// miss pays for scanning the whole table — the linearly rising curve in E6.
func (l *Linear) Lookup(vc atm.VC) (int, int, bool) {
	for i, e := range l.entries {
		if e.vc == vc {
			return e.idx, linearSetupCycles + (i+1)*linearProbeCycles, true
		}
	}
	return 0, linearSetupCycles + len(l.entries)*linearProbeCycles, false
}

// ---------------------------------------------------------------------------
// Open-addressing hash

// Firmware hash cost: compute hash (shift/xor/mask ≈ 6 instructions), then
// per probe: load, compare, branch.
const (
	hashSetupCycles = 6
	hashProbeCycles = 4
)

// Hash is firmware open-addressing (linear probing) into a power-of-two
// table kept at most half full so probe chains stay short.
type Hash struct {
	slots   []hashSlot
	mask    uint32
	n       int
	maxLoad int
	nextIdx int
	freeIdx []int
}

type hashSlot struct {
	vc    atm.VC
	idx   int
	state uint8 // 0 empty, 1 used, 2 tombstone
}

// NewHash returns a hash table that accepts up to capacity VCs.
func NewHash(capacity int) *Hash {
	if capacity <= 0 {
		panic("vclookup: invalid capacity")
	}
	// Table size: next power of two >= 2*capacity.
	size := 1
	for size < 2*capacity {
		size <<= 1
	}
	return &Hash{slots: make([]hashSlot, size), mask: uint32(size - 1), maxLoad: capacity}
}

// Name implements Strategy.
func (h *Hash) Name() string { return "hash" }

// Len implements Strategy.
func (h *Hash) Len() int { return h.n }

// Cap implements Strategy.
func (h *Hash) Cap() int { return h.maxLoad }

func hashVC(vc atm.VC) uint32 {
	x := uint32(vc.VPI)<<16 | uint32(vc.VCI)
	// Cheap avalanche the engine could do in ~6 instructions.
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	return x
}

// Insert implements Strategy. It takes the first slot on the probe path
// that holds no VC. The walk ends at an empty slot or after every slot:
// removals leave tombstones, and churn can tombstone every empty slot.
func (h *Hash) Insert(vc atm.VC) (int, error) {
	if h.n == h.maxLoad {
		return 0, ErrFull
	}
	pos := hashVC(vc) & h.mask
	free := -1
	for range h.slots {
		s := &h.slots[pos]
		if s.state == 1 && s.vc == vc {
			return 0, ErrDuplicate
		}
		if s.state != 1 && free < 0 {
			free = int(pos)
		}
		if s.state == 0 {
			break
		}
		pos = (pos + 1) & h.mask
	}
	// The table is at most half full, so some slot holds no VC.
	idx := h.allocIdx()
	h.slots[free] = hashSlot{vc: vc, idx: idx, state: 1}
	h.n++
	return idx, nil
}

func (h *Hash) allocIdx() int {
	if n := len(h.freeIdx); n > 0 {
		idx := h.freeIdx[n-1]
		h.freeIdx = h.freeIdx[:n-1]
		return idx
	}
	idx := h.nextIdx
	h.nextIdx++
	return idx
}

// Remove implements Strategy. Like Lookup, it probes at most every slot.
func (h *Hash) Remove(vc atm.VC) {
	pos := hashVC(vc) & h.mask
	for range h.slots {
		s := &h.slots[pos]
		switch s.state {
		case 0:
			return
		case 1:
			if s.vc == vc {
				h.freeIdx = append(h.freeIdx, s.idx)
				s.state = 2
				h.n--
				return
			}
		}
		pos = (pos + 1) & h.mask
	}
}

// Lookup implements Strategy: setup plus one probe per slot inspected. A
// miss ends at an empty slot or after every slot.
func (h *Hash) Lookup(vc atm.VC) (int, int, bool) {
	pos := hashVC(vc) & h.mask
	probes := 0
	for range h.slots {
		probes++
		s := &h.slots[pos]
		switch s.state {
		case 0:
			return 0, hashSetupCycles + probes*hashProbeCycles, false
		case 1:
			if s.vc == vc {
				return s.idx, hashSetupCycles + probes*hashProbeCycles, true
			}
		}
		pos = (pos + 1) & h.mask
	}
	return 0, hashSetupCycles + probes*hashProbeCycles, false
}
