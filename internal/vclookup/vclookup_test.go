package vclookup

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/atm"
)

func strategies(cap int) []Strategy {
	return []Strategy{NewCAM(cap), NewLinear(cap), NewHash(cap)}
}

func vcN(i int) atm.VC { return atm.VC{VPI: uint16(i >> 8), VCI: uint16(i*7 + 1)} }

func TestInsertLookupAllStrategies(t *testing.T) {
	for _, s := range strategies(64) {
		idx := make(map[atm.VC]int)
		for i := 0; i < 64; i++ {
			vc := vcN(i)
			id, err := s.Insert(vc)
			if err != nil {
				t.Fatalf("%s: insert %v: %v", s.Name(), vc, err)
			}
			idx[vc] = id
		}
		if s.Len() != 64 {
			t.Fatalf("%s: Len = %d", s.Name(), s.Len())
		}
		for vc, want := range idx {
			got, cycles, ok := s.Lookup(vc)
			if !ok || got != want {
				t.Fatalf("%s: lookup %v = %d,%v, want %d", s.Name(), vc, got, ok, want)
			}
			if cycles <= 0 {
				t.Fatalf("%s: free lookup", s.Name())
			}
		}
	}
}

func TestIndicesDistinct(t *testing.T) {
	for _, s := range strategies(32) {
		seen := map[int]bool{}
		for i := 0; i < 32; i++ {
			id, err := s.Insert(vcN(i))
			if err != nil {
				t.Fatal(err)
			}
			if seen[id] {
				t.Fatalf("%s: duplicate index %d", s.Name(), id)
			}
			seen[id] = true
		}
	}
}

func TestMissReported(t *testing.T) {
	for _, s := range strategies(8) {
		s.Insert(vcN(0))
		_, cycles, ok := s.Lookup(atm.VC{VPI: 99, VCI: 9999})
		if ok {
			t.Fatalf("%s: phantom hit", s.Name())
		}
		if cycles <= 0 {
			t.Fatalf("%s: miss cost zero cycles", s.Name())
		}
	}
}

func TestDuplicateInsertRejected(t *testing.T) {
	for _, s := range strategies(8) {
		s.Insert(vcN(1))
		if _, err := s.Insert(vcN(1)); !errors.Is(err, ErrDuplicate) {
			t.Fatalf("%s: err = %v, want ErrDuplicate", s.Name(), err)
		}
	}
}

func TestCapacityEnforced(t *testing.T) {
	for _, s := range strategies(4) {
		for i := 0; i < 4; i++ {
			if _, err := s.Insert(vcN(i)); err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
		}
		if _, err := s.Insert(vcN(99)); !errors.Is(err, ErrFull) {
			t.Fatalf("%s: err = %v, want ErrFull", s.Name(), err)
		}
		if s.Cap() != 4 {
			t.Fatalf("%s: Cap = %d", s.Name(), s.Cap())
		}
	}
}

func TestRemoveThenReuse(t *testing.T) {
	for _, s := range strategies(4) {
		for i := 0; i < 4; i++ {
			s.Insert(vcN(i))
		}
		s.Remove(vcN(2))
		if s.Len() != 3 {
			t.Fatalf("%s: Len after remove = %d", s.Name(), s.Len())
		}
		if _, _, ok := s.Lookup(vcN(2)); ok {
			t.Fatalf("%s: removed VC still found", s.Name())
		}
		// Others undisturbed.
		for _, i := range []int{0, 1, 3} {
			if _, _, ok := s.Lookup(vcN(i)); !ok {
				t.Fatalf("%s: VC %d lost after unrelated remove", s.Name(), i)
			}
		}
		// Space freed.
		if _, err := s.Insert(vcN(50)); err != nil {
			t.Fatalf("%s: reinsert after remove: %v", s.Name(), err)
		}
	}
}

func TestRemoveAbsentIsNoOp(t *testing.T) {
	for _, s := range strategies(4) {
		s.Insert(vcN(0))
		s.Remove(vcN(42)) // must not panic or disturb
		if _, _, ok := s.Lookup(vcN(0)); !ok {
			t.Fatalf("%s: remove of absent VC disturbed table", s.Name())
		}
	}
}

func TestCAMCostFlat(t *testing.T) {
	c := NewCAM(256)
	c.Insert(vcN(0))
	_, c1, _ := c.Lookup(vcN(0))
	for i := 1; i < 256; i++ {
		c.Insert(vcN(i))
	}
	_, c2, _ := c.Lookup(vcN(255))
	if c1 != c2 {
		t.Fatalf("CAM cost varies with occupancy: %d vs %d", c1, c2)
	}
}

func TestLinearCostGrows(t *testing.T) {
	l := NewLinear(256)
	for i := 0; i < 256; i++ {
		l.Insert(vcN(i))
	}
	_, first, _ := l.Lookup(vcN(0))
	_, last, _ := l.Lookup(vcN(255))
	if last <= first {
		t.Fatalf("linear cost did not grow: first %d, last %d", first, last)
	}
	if last < 256*linearProbeCycles {
		t.Fatalf("deep lookup cost %d implausibly low", last)
	}
}

func TestHashCostBounded(t *testing.T) {
	h := NewHash(256)
	for i := 0; i < 256; i++ {
		h.Insert(vcN(i))
	}
	worst := 0
	for i := 0; i < 256; i++ {
		_, c, ok := h.Lookup(vcN(i))
		if !ok {
			t.Fatal("inserted VC missing")
		}
		if c > worst {
			worst = c
		}
	}
	// Half-loaded linear probing: expected probe chains are short. Allow
	// a generous bound that still separates hash from linear scan.
	if worst > hashSetupCycles+16*hashProbeCycles {
		t.Fatalf("worst hash lookup %d cycles; table degenerated", worst)
	}
}

func TestOrderingCAMvsHashvsLinear(t *testing.T) {
	// The E6 shape at high occupancy: cam < hash < linear (average cost).
	n := 512
	cam, hash, lin := NewCAM(n), NewHash(n), NewLinear(n)
	for i := 0; i < n; i++ {
		cam.Insert(vcN(i))
		hash.Insert(vcN(i))
		lin.Insert(vcN(i))
	}
	avg := func(s Strategy) float64 {
		total := 0
		for i := 0; i < n; i++ {
			_, c, _ := s.Lookup(vcN(i))
			total += c
		}
		return float64(total) / float64(n)
	}
	aCam, aHash, aLin := avg(cam), avg(hash), avg(lin)
	if !(aCam < aHash && aHash < aLin) {
		t.Fatalf("cost ordering broken: cam %.1f, hash %.1f, linear %.1f", aCam, aHash, aLin)
	}
}

func TestHashTombstoneChains(t *testing.T) {
	// Insert colliding entries, remove one mid-chain, and verify the rest
	// remain reachable (tombstones must not break probing).
	h := NewHash(16)
	var vcs []atm.VC
	for i := 0; i < 16; i++ {
		vc := vcN(i)
		vcs = append(vcs, vc)
		h.Insert(vc)
	}
	h.Remove(vcs[5])
	h.Remove(vcs[11])
	for i, vc := range vcs {
		_, _, ok := h.Lookup(vc)
		want := i != 5 && i != 11
		if ok != want {
			t.Fatalf("vc %d: found=%v, want %v", i, ok, want)
		}
	}
	// Tombstoned slots are reused.
	if _, err := h.Insert(vcN(100)); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Insert(vcN(101)); err != nil {
		t.Fatal(err)
	}
}

// TestHashChurnEndsProbes churns a four-slot table until every slot that
// holds no VC is a tombstone; each operation must still end, and the costs
// charged stay within one walk of the table.
func TestHashChurnEndsProbes(t *testing.T) {
	h := NewHash(2)
	for i := 0; i < 5; i++ {
		vc := atm.VC{VCI: uint16(i)}
		if _, err := h.Insert(vc); err != nil {
			t.Fatalf("insert VCI %d: %v", i, err)
		}
		h.Remove(vc)
	}
	for _, s := range h.slots {
		if s.state == 0 {
			t.Fatal("churn left an empty slot; the test no longer reaches the all-tombstone table")
		}
	}
	absent := atm.VC{VCI: 99}
	if _, cycles, ok := h.Lookup(absent); ok || cycles != hashSetupCycles+len(h.slots)*hashProbeCycles {
		t.Fatalf("lookup of an absent VC = %v, %d cycles; want a miss after %d probes", ok, cycles, len(h.slots))
	}
	h.Remove(absent)
	idx, err := h.Insert(absent)
	if err != nil {
		t.Fatalf("insert into a tombstoned table: %v", err)
	}
	if got, _, ok := h.Lookup(absent); !ok || got != idx {
		t.Fatalf("lookup after insert = %d, %v; want %d", got, ok, idx)
	}
	if _, err := h.Insert(absent); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("second insert: %v, want ErrDuplicate", err)
	}
}

func TestInvalidCapacityPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"cam":    func() { NewCAM(0) },
		"linear": func() { NewLinear(0) },
		"hash":   func() { NewHash(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: zero capacity did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// Property: all three strategies agree with a map model under a random
// insert/remove/lookup workload: at capacity 64 with 80 keys, and with
// insert/remove churn over 8 keys at capacities 1–4, where a hash table is
// at most eight slots and tombstones fill it.
func TestPropertyStrategiesMatchMapModel(t *testing.T) {
	type op struct {
		Insert bool
		Key    uint8
	}
	check := func(capacity, keys int, ops []op) bool {
		ss := strategies(capacity)
		models := []map[atm.VC]int{{}, {}, {}}
		for _, o := range ops {
			vc := vcN(int(o.Key) % keys)
			for i, s := range ss {
				m := models[i]
				if o.Insert {
					// A full table that holds the VC may refuse it
					// either way: the CAM looks for the duplicate first.
					id, err := s.Insert(vc)
					_, dup := m[vc]
					full := len(m) >= capacity
					switch {
					case dup && full:
						if !errors.Is(err, ErrDuplicate) && !errors.Is(err, ErrFull) {
							return false
						}
					case dup:
						if !errors.Is(err, ErrDuplicate) {
							return false
						}
					case full:
						if !errors.Is(err, ErrFull) {
							return false
						}
					default:
						if err != nil {
							return false
						}
						m[vc] = id
					}
				} else {
					s.Remove(vc)
					delete(m, vc)
				}
				got, _, ok := s.Lookup(vc)
				want, present := m[vc]
				if ok != present || (ok && got != want) {
					return false
				}
				if s.Len() != len(m) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(func(ops []op) bool { return check(64, 80, ops) }, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	for capacity := 1; capacity <= 4; capacity++ {
		churn := func(ops []op) bool { return check(capacity, 8, ops) }
		if err := quick.Check(churn, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("capacity %d: %v", capacity, err)
		}
	}
}

// TestSixtyFourKEntries is city-scale coverage (ROADMAP item 3): CAM and
// hash agree with a map model at 65536 registered VCs — full insert,
// strided removal, reinsertion, and miss reporting. Linear scan is excluded:
// its duplicate check makes 64k inserts quadratic, and E6 already shows the
// firmware scan is hopeless far below this point.
func TestSixtyFourKEntries(t *testing.T) {
	const n = 1 << 16
	for _, s := range []Strategy{NewCAM(n), NewHash(n)} {
		idx := make(map[atm.VC]int, n)
		for i := 0; i < n; i++ {
			vc := vcN(i)
			id, err := s.Insert(vc)
			if err != nil {
				t.Fatalf("%s: insert %d (%v): %v", s.Name(), i, vc, err)
			}
			idx[vc] = id
		}
		if s.Len() != n {
			t.Fatalf("%s: Len = %d, want %d", s.Name(), s.Len(), n)
		}
		if _, err := s.Insert(atm.VC{VPI: 4096, VCI: 1}); !errors.Is(err, ErrFull) {
			t.Fatalf("%s: insert past 64k: err = %v, want ErrFull", s.Name(), err)
		}
		for i := 0; i < n; i++ {
			vc := vcN(i)
			got, cycles, ok := s.Lookup(vc)
			if !ok || got != idx[vc] {
				t.Fatalf("%s: lookup %d = (%d, %v), want %d", s.Name(), i, got, ok, idx[vc])
			}
			if cycles <= 0 {
				t.Fatalf("%s: free lookup at %d", s.Name(), i)
			}
		}
		// Remove every 17th entry, then verify holes and survivors.
		for i := 0; i < n; i += 17 {
			s.Remove(vcN(i))
		}
		for i := 0; i < n; i++ {
			_, _, ok := s.Lookup(vcN(i))
			if want := i%17 != 0; ok != want {
				t.Fatalf("%s: after removal, lookup %d = %v, want %v", s.Name(), i, ok, want)
			}
		}
		// Freed capacity is reusable and reinserts resolve again.
		for i := 0; i < n; i += 17 {
			if _, err := s.Insert(vcN(i)); err != nil {
				t.Fatalf("%s: reinsert %d: %v", s.Name(), i, err)
			}
		}
		if s.Len() != n {
			t.Fatalf("%s: Len after reinsert = %d, want %d", s.Name(), s.Len(), n)
		}
	}
}

// TestHashCostBounded64k pins that the hash stays half-loaded and its probe
// chains stay short even at city-scale occupancy — the property that lets
// firmware survive without a 64k-entry CAM part.
func TestHashCostBounded64k(t *testing.T) {
	const n = 1 << 16
	h := NewHash(n)
	for i := 0; i < n; i++ {
		if _, err := h.Insert(vcN(i)); err != nil {
			t.Fatal(err)
		}
	}
	worst, total := 0, 0
	for i := 0; i < n; i++ {
		_, c, ok := h.Lookup(vcN(i))
		if !ok {
			t.Fatalf("inserted VC %d missing", i)
		}
		total += c
		if c > worst {
			worst = c
		}
	}
	if worst > hashSetupCycles+64*hashProbeCycles {
		t.Fatalf("worst lookup %d cycles at 64k; table degenerated", worst)
	}
	if avg := float64(total) / n; avg > hashSetupCycles+4*hashProbeCycles {
		t.Fatalf("average lookup %.1f cycles at 64k; load factor broken", avg)
	}
}

// BenchmarkLookup64k measures real wall-clock Lookup cost at 65536 active
// VCs for the two strategies that scale there, and reports each strategy's
// modelled engine cycles, so one run shows both axes.
func BenchmarkLookup64k(b *testing.B) {
	const n = 1 << 16
	for _, s := range []Strategy{NewCAM(n), NewHash(n)} {
		for i := 0; i < n; i++ {
			if _, err := s.Insert(vcN(i)); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(s.Name(), func(b *testing.B) {
			totalCycles := 0
			for i := 0; i < b.N; i++ {
				_, cycles, ok := s.Lookup(vcN(i & (n - 1)))
				if !ok {
					b.Fatal("miss")
				}
				totalCycles += cycles
			}
			b.ReportMetric(float64(totalCycles)/float64(b.N), "engine-cycles")
		})
	}
}

// camKeys is the label space of the CAM model checks: sixteen labels, so
// a tiny CAM's 8- or 16-slot match table sees collisions, wrapped probe
// chains and removals in the middle of a chain.
const camKeys = 16

func camKey(k int) atm.VC {
	return atm.VC{VPI: uint16(k % 3), VCI: uint16(32 + 7*(k%camKeys))}
}

// checkCAM drives a CAM of the given capacity through ops, each an
// insert (kind 0), remove (kind 1) or lookup (kind 2) of label key, and
// checks every step against a reference model: an insert gets the lowest
// free index, or ErrDuplicate, or ErrFull when every index is taken; after
// every step each label resolves as the model says and Len agrees.
func checkCAM(capacity int, kinds, keys []uint8) error {
	c := NewCAM(capacity)
	model := map[atm.VC]int{}
	used := make([]bool, capacity)
	for step := range kinds {
		vc := camKey(int(keys[step]))
		switch kinds[step] % 3 {
		case 0:
			idx, err := c.Insert(vc)
			_, dup := model[vc]
			lowest := slices.Index(used, false)
			switch {
			case dup:
				if !errors.Is(err, ErrDuplicate) {
					return fmt.Errorf("step %d: duplicate insert of %v: err %v", step, vc, err)
				}
			case lowest < 0:
				if !errors.Is(err, ErrFull) {
					return fmt.Errorf("step %d: insert of %v into a full CAM: err %v", step, vc, err)
				}
			case err != nil || idx != lowest:
				return fmt.Errorf("step %d: insert of %v = (%d, %v), want the lowest free index %d", step, vc, idx, err, lowest)
			default:
				model[vc] = idx
				used[idx] = true
			}
		case 1:
			c.Remove(vc)
			if idx, ok := model[vc]; ok {
				used[idx] = false
				delete(model, vc)
			}
		}
		for k := 0; k < camKeys; k++ {
			vc := camKey(k)
			got, cycles, ok := c.Lookup(vc)
			want, present := model[vc]
			if ok != present || (ok && got != want) || cycles != camCycles {
				return fmt.Errorf("step %d: lookup %v = (%d, %d cycles, %v), want (%d, %d, %v)",
					step, vc, got, cycles, ok, want, camCycles, present)
			}
		}
		if c.Len() != len(model) {
			return fmt.Errorf("step %d: Len = %d, want %d", step, c.Len(), len(model))
		}
	}
	return nil
}

// Property: a tiny CAM agrees with the reference model under random
// insert/remove/lookup sequences.
func TestPropertyCAMMatchesModel(t *testing.T) {
	f := func(capacity uint8, kinds, keys []uint8) bool {
		n := min(len(kinds), len(keys))
		if err := checkCAM(1+int(capacity%6), kinds[:n], keys[:n]); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: a Table that starts empty and grows agrees with a map under
// random puts (new and replacing) and deletes.
func TestPropertyTableMatchesMap(t *testing.T) {
	f := func(ops []uint16) bool {
		var tab Table
		model := map[atm.VC]int32{}
		for step, o := range ops {
			vc := camKey(int(o % 24)) // 24 labels: the table grows from 8 to 64 slots
			if o&0x8000 != 0 {
				tab.Delete(vc)
				delete(model, vc)
			} else {
				tab.Put(vc, int32(step))
				model[vc] = int32(step)
			}
			for k := 0; k < 24; k++ {
				vc := camKey(k)
				got, ok := tab.Get(vc)
				want, present := model[vc]
				if ok != present || (ok && got != want) {
					t.Logf("step %d: Get(%v) = (%d, %v), want (%d, %v)", step, vc, got, ok, want, present)
					return false
				}
			}
			if tab.Len() != len(model) {
				t.Logf("step %d: Len = %d, want %d", step, tab.Len(), len(model))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// A probe chain that wraps from the table's last slot to its first
// survives removal of any of its entries.
func TestTableWrappedChainRemoval(t *testing.T) {
	var probe Table
	probe.resize(4) // 8 slots
	var last, first []atm.VC
	for vci := uint16(1); len(last) < 3 || len(first) < 1; vci++ {
		vc := atm.VC{VCI: vci}
		switch probe.home(packVC(vc)) {
		case 7:
			last = append(last, vc)
		case 0:
			first = append(first, vc)
		}
	}
	// last[0..2] fill slots 7, 0 and 1; first[0], homed at 0, lands in 2.
	chain := []atm.VC{last[0], last[1], last[2], first[0]}
	for victim := range chain {
		var tab Table
		tab.resize(4)
		for i, vc := range chain {
			tab.Put(vc, int32(i))
		}
		tab.Delete(chain[victim])
		for i, vc := range chain {
			got, ok := tab.Get(vc)
			if want := i != victim; ok != want || (ok && got != int32(i)) {
				t.Fatalf("after removing %v: Get(%v) = (%d, %v), want (%d, %v)", chain[victim], vc, got, ok, i, want)
			}
		}
		if tab.Len() != len(chain)-1 {
			t.Fatalf("Len = %d after one removal, want %d", tab.Len(), len(chain)-1)
		}
	}
}
