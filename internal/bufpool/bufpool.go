// Package bufpool provides a deterministic byte-buffer pool for the
// simulated datapath: SDU payloads, reassembly targets, and cell payload
// staging. Buffers are recycled through power-of-two size-class free lists,
// so a steady-state flow (the common case — a source sending fixed-size
// frames) allocates each buffer once and then runs allocation-free.
//
// Unlike sync.Pool, this pool is a plain per-kernel data structure: no
// locks, no GC-driven eviction, fully deterministic, and therefore safe to
// embed in a single-goroutine simulation without perturbing timing between
// runs. Pools must not be shared across kernels — parallel experiment
// sweeps give every sweep point its own pool, exactly as they give every
// point its own kernel.
//
// Ownership is explicit, mirroring the paper's host/NIC buffer hand-off:
// Get transfers a buffer to the caller; Put hands it back. A buffer must
// not be used after Put. Nothing enforces this (it is a simulator, not a
// kernel allocator), but the AllocsPerRun pins in the datapath tests catch
// double-recycling bugs as nondeterministic length corruption immediately.
package bufpool

import (
	"math/bits"

	"repro/internal/metrics"
)

// Size classes span 64 B .. 64 KiB: class i holds buffers of capacity
// minClass<<i. The top class (1<<16) covers the AAL5 MaxSDU of 65535 plus
// the one-cell overshoot reassembly needs before length validation.
const (
	minClassShift = 6  // 64 B
	maxClassShift = 16 // 64 KiB
	numClasses    = maxClassShift - minClassShift + 1
)

// Pool recycles byte buffers through per-size-class free lists. The zero
// value is ready to use. A nil *Pool is valid and degrades to plain make —
// components take an optional pool and need no nil checks at call sites.
type Pool struct {
	classes [numClasses][][]byte

	// Registry instruments, the pool's only counts (nil until Instrument;
	// nil-safe).
	mHits   *metrics.Counter // Gets served from a free list
	mMisses *metrics.Counter // Gets that had to allocate (incl. oversize)
	mPuts   *metrics.Counter // buffers returned
}

// New returns an empty pool.
func New() *Pool { return &Pool{} }

// class returns the size-class index for a requested length, or -1 when the
// request exceeds the largest class and must bypass the pool.
func class(n int) int {
	if n <= 1<<minClassShift {
		return 0
	}
	c := bits.Len(uint(n-1)) - minClassShift
	if c >= numClasses {
		return -1
	}
	return c
}

// Get returns a buffer with len(b) == n, drawn from the pool when a
// same-class buffer is free and freshly allocated otherwise. n <= 0 returns
// nil. On a nil pool, Get is plain make.
func (p *Pool) Get(n int) []byte {
	if n <= 0 {
		return nil
	}
	if p == nil {
		return make([]byte, n)
	}
	c := class(n)
	if c >= 0 {
		if fl := p.classes[c]; len(fl) > 0 {
			b := fl[len(fl)-1]
			fl[len(fl)-1] = nil
			p.classes[c] = fl[:len(fl)-1]
			p.mHits.Inc()
			return b[:n]
		}
		p.mMisses.Inc()
		return make([]byte, n, 1<<(minClassShift+c))
	}
	p.mMisses.Inc()
	return make([]byte, n)
}

// Put returns a buffer to the pool. Buffers whose capacity is not an exact
// size class (grown by append, sliced from elsewhere, oversize) are dropped
// on the floor for the GC — recycling them would erode the class invariant
// that a hit always has capacity for its class. Put(nil) and Put on a nil
// pool are no-ops.
func (p *Pool) Put(b []byte) {
	if p == nil || cap(b) == 0 {
		return
	}
	c := class(cap(b))
	if c < 0 || cap(b) != 1<<(minClassShift+c) {
		return
	}
	p.mPuts.Inc()
	p.classes[c] = append(p.classes[c], b[:0])
}

// Stats reads the pool's registry instruments: free-list hits, allocating
// misses, and buffers returned. A nil or un-instrumented pool reports zeros.
// No program reads it (they read the registry); the bufpool, phy and nic
// tests do.
func (p *Pool) Stats() (hits, misses, puts uint64) {
	if p == nil {
		return 0, 0, 0
	}
	return p.mHits.Value(), p.mMisses.Value(), p.mPuts.Value()
}

// Instrument registers this pool's telemetry under the given name prefix:
// "<prefix>.hits", "<prefix>.misses", "<prefix>.puts" counters. A nil
// registry (or nil pool) leaves the pool un-instrumented, counting nothing.
func (p *Pool) Instrument(reg *metrics.Registry, prefix string) {
	if p == nil {
		return
	}
	p.mHits = reg.Counter(prefix + ".hits")
	p.mMisses = reg.Counter(prefix + ".misses")
	p.mPuts = reg.Counter(prefix + ".puts")
}
