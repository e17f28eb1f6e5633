package atm

// Pool recycles Cell values so the simulated per-cell fast paths do not
// allocate.  It is a plain free list rather than sync.Pool: the simulator is
// single-goroutine by design, and a deterministic free list keeps benchmark
// numbers stable.
type Pool struct {
	free []*Cell

	// Accounting, useful in tests to prove the hot path recycles.
	gets, puts, news uint64
}

// NewPool returns a pool pre-populated with n cells.
func NewPool(n int) *Pool {
	p := &Pool{free: make([]*Cell, 0, n)}
	for i := 0; i < n; i++ {
		p.free = append(p.free, new(Cell))
	}
	return p
}

// Get returns a cell, reusing a recycled one when available. The cell's
// header is zeroed; the payload is left dirty (callers overwrite it).
func (p *Pool) Get() *Cell {
	p.gets++
	n := len(p.free)
	if n == 0 {
		p.news++
		return new(Cell)
	}
	c := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	c.Header = Header{}
	return c
}

// Put returns a cell to the pool. Putting nil is a no-op.
func (p *Pool) Put(c *Cell) {
	if c == nil {
		return
	}
	p.puts++
	p.free = append(p.free, c)
}

// Stats reports cumulative gets, puts and fresh allocations. No program
// reads it; the pool-bound tests (core, phy, fifo, nic, netsim and the
// experiments) check through it that cells recycle.
func (p *Pool) Stats() (gets, puts, news uint64) { return p.gets, p.puts, p.news }
