package vclookup

import (
	"fmt"

	"repro/internal/atm"
)

// Table is the simulator's own VC → int32 map: open addressing over the
// packed label uint32(VPI)<<16 | VCI, with a multiplicative hash and linear
// probing. It backs the CAM's match store and the switch's per-port
// translation tables, so a per-cell lookup is one multiply and, at half load
// at most, a probe or two, never a Go map. Removal shifts the rest of the
// probe chain back (Knuth's Algorithm R), so no tombstone ever lengthens a
// chain. Values are non-negative.
//
// The zero Table is empty and ready to use; it allocates on its first Put.
type Table struct {
	slots []tableSlot // len is zero or a power of two, at least twice n
	shift uint8       // 32 − log2(len(slots)): the hash's top bits pick the home slot
	n     int
}

// tableSlot holds one entry. A zero slot is empty: val holds the value + 1.
type tableSlot struct {
	key uint32
	val int32
}

// tableMult is the multiplicative hash constant (2^32 / φ).
const tableMult = 0x9e3779b1

func packVC(vc atm.VC) uint32 { return uint32(vc.VPI)<<16 | uint32(vc.VCI) }

// home is key's first probe slot.
func (t *Table) home(key uint32) uint32 { return key * tableMult >> t.shift }

// Len reports the number of entries.
func (t *Table) Len() int { return t.n }

// Get returns vc's value; ok is false when vc is absent.
func (t *Table) Get(vc atm.VC) (v int32, ok bool) {
	key := packVC(vc)
	// The bound is also the zero Table's case: with no slots, the loop
	// does not run.
	for i := t.home(key); uint(i) < uint(len(t.slots)); i = (i + 1) & uint32(len(t.slots)-1) {
		s := t.slots[i]
		if s.val == 0 {
			break
		}
		if s.key == key {
			return s.val - 1, true
		}
	}
	return 0, false
}

// Put sets vc's value, adding the entry if vc is absent. The table doubles
// when an addition would fill more than half its slots.
func (t *Table) Put(vc atm.VC, v int32) {
	if v < 0 || v == 1<<31-1 {
		panic(fmt.Sprintf("vclookup: table value %d out of range", v))
	}
	if 2*(t.n+1) > len(t.slots) {
		t.resize(t.n + 1)
	}
	key := packVC(vc)
	mask := uint32(len(t.slots) - 1)
	i := t.home(key)
	for t.slots[i].val != 0 && t.slots[i].key != key {
		i = (i + 1) & mask
	}
	if t.slots[i].val == 0 {
		t.n++
	}
	t.slots[i] = tableSlot{key: key, val: v + 1}
}

// Delete removes vc; deleting an absent VC is a no-op. Each later entry of
// the probe chain whose home slot does not lie between the hole and itself
// moves back into the hole, so every remaining entry stays reachable from
// its home slot without tombstones.
func (t *Table) Delete(vc atm.VC) {
	if t.n == 0 {
		return
	}
	key := packVC(vc)
	mask := uint32(len(t.slots) - 1)
	i := t.home(key)
	for t.slots[i].key != key || t.slots[i].val == 0 {
		if t.slots[i].val == 0 {
			return
		}
		i = (i + 1) & mask
	}
	t.n--
	for j := i; ; {
		t.slots[i] = tableSlot{}
		for {
			j = (j + 1) & mask
			if t.slots[j].val == 0 {
				return
			}
			// The entry at j may fill the hole at i unless its home h lies
			// cyclically in (i, j].
			h := t.home(t.slots[j].key)
			if (i <= j && (h <= i || h > j)) || (i > j && h <= i && h > j) {
				break
			}
		}
		t.slots[i] = t.slots[j]
		i = j
	}
}

// resize rehashes into the smallest power of two of at least 2×capacity
// slots (and at least 8).
func (t *Table) resize(capacity int) {
	size, bits := 8, uint8(3)
	for size < 2*capacity {
		size <<= 1
		bits++
	}
	old := t.slots
	t.slots, t.shift, t.n = make([]tableSlot, size), 32-bits, 0
	mask := uint32(size - 1)
	for _, s := range old {
		if s.val == 0 {
			continue
		}
		i := t.home(s.key)
		for t.slots[i].val != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
		t.n++
	}
}
