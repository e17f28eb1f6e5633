package experiments

import "sync/atomic"

// Sweep parallelism: the big sweeps (E3, E4, E8, E9, E11, E15) enumerate
// their points into a case slice and compute them through runner.Map, each
// point building its own kernel and stations. Results land at their case
// index, so every table and CSV is bit-identical to a serial run.
var parWorkers atomic.Int32

func init() { parWorkers.Store(1) }

// SetParallelism sets the number of worker goroutines the sweep experiments
// fan points across. n <= 0 selects GOMAXPROCS; the default is 1 (serial).
func SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	parWorkers.Store(int32(n))
}

// Parallelism reports the configured worker count (0 = GOMAXPROCS).
func Parallelism() int { return int(parWorkers.Load()) }

// Intra-run sharding: orthogonal to sweep parallelism above. Where sweep
// parallelism runs many independent simulations at once (one per point),
// sharding splits ONE simulation's topology into partitions advanced in
// lock-step by sim.Group (see core.NetworkSpec.Shards). Experiments whose
// topologies the partitioner can cut honor it (currently E16, the multi-
// switch tandem chain); the two compose — each sweep worker runs its own
// sharded network. Sharded runs are pinned byte-identical to serial by the
// core golden tests, so results do not depend on this setting.
var runShards atomic.Int32

func init() { runShards.Store(1) }

// SetShards sets the partition count topology-building experiments request
// from core.NewNetwork. n <= 1 (the default) builds serial networks.
func SetShards(n int) {
	if n < 1 {
		n = 1
	}
	runShards.Store(int32(n))
}

// Shards reports the configured intra-run partition count.
func Shards() int { return int(runShards.Load()) }
