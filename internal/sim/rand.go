package sim

import "math"

// Rand is a small, deterministic pseudo-random stream for workload and fault
// injection.  It is a 64-bit SplitMix64 generator: fast, stateless between
// calls, and fully reproducible from its seed, which matters because every
// experiment in this repository must be rerunnable bit-for-bit.
//
// math/rand would also work, but carrying our own keeps the generator stable
// across Go releases (math/rand/v2 changed algorithms).
//
// # Sharing across partitions
//
// A Rand is single-owner state, exactly like a queue or a FIFO: the sequence
// a consumer sees depends on every draw interleaved before its own. In a
// serial run that interleaving is fixed by the event order; in a sharded run
// (sim.Group) two partitions draining one shared Rand would race AND would
// draw a different per-node sequence than the serial reference, silently
// breaking golden equivalence. The rule, enforced by TestRandSplitStreams:
// every node owns its own stream, seeded independently before the run
// starts, so each partition's draws are a pure function of its own event
// order. The core builder follows it already:
// every link and workload seeds its own Rand from its spec seed.
type Rand struct {
	state uint64
}

// NewRand returns a stream seeded with seed. Two streams with the same seed
// produce identical sequences.
func NewRand(seed uint64) *Rand {
	return &Rand{state: seed}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform draw in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform draw in [0, n). n must be positive.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Bernoulli reports true with probability p.
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Exp returns an exponentially distributed draw with the given mean.
func (r *Rand) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// ExpDuration returns an exponentially distributed simulated duration with
// the given mean.
func (r *Rand) ExpDuration(mean Duration) Duration {
	d := Duration(r.Exp(float64(mean)))
	if d < 0 {
		d = 0
	}
	return d
}
