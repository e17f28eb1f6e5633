package experiments

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

// Serial vs parallel: fanning sweep points across goroutines reorders only
// the computation, never the results. Checked on full result structs (every
// float bit compared) for a closed-loop sweep (E3), a paced open-loop sweep
// (E9) and the multi-hop chain (E16). The heap ≡ wheel scheduler property
// is pinned in internal/sim, and every rig's results by digest in
// rigs_golden_test.go.

func goldenE3Config() E3Config {
	return E3Config{
		Sizes:   []int{64, 9180},
		RunTime: 5 * sim.Millisecond,
		Window:  4,
	}
}

var goldenE9Depths = []int{16, 96}

func withParallelism(t *testing.T, n int, fn func()) {
	t.Helper()
	prev := Parallelism()
	SetParallelism(n)
	defer SetParallelism(prev)
	fn()
}

func TestE3SerialParallelIdentical(t *testing.T) {
	ec := goldenE3Config()
	var serial, par []E3Point
	withParallelism(t, 1, func() { serial, _, _ = E3(ec) })
	withParallelism(t, 8, func() { par, _, _ = E3(ec) })
	if !reflect.DeepEqual(serial, par) {
		t.Errorf("E3 parallel results differ from serial:\nserial: %+v\nparallel: %+v", serial, par)
	}
}

func TestE9SerialParallelIdentical(t *testing.T) {
	var serial, par []E9Point
	withParallelism(t, 1, func() { serial, _ = E9(goldenE9Depths, 5*sim.Millisecond) })
	withParallelism(t, 8, func() { par, _ = E9(goldenE9Depths, 5*sim.Millisecond) })
	if !reflect.DeepEqual(serial, par) {
		t.Errorf("E9 parallel results differ from serial:\nserial: %+v\nparallel: %+v", serial, par)
	}
}

func TestE16SerialParallelIdentical(t *testing.T) {
	var serial, par []E16Point
	withParallelism(t, 1, func() { serial, _ = E16(5 * sim.Millisecond) })
	withParallelism(t, 8, func() { par, _ = E16(5 * sim.Millisecond) })
	if !reflect.DeepEqual(serial, par) {
		t.Errorf("E16 parallel results differ from serial:\nserial: %+v\nparallel: %+v", serial, par)
	}
}

func withShards(t *testing.T, n int, fn func()) {
	t.Helper()
	prev := Shards()
	SetShards(n)
	defer SetShards(prev)
	fn()
}

// TestE16ShardedSerialIdentical pins the third equivalence: intra-run
// sharding (one simulation split across partition kernels, the -shards
// flag) must leave every E16 result bit-identical to the serial kernel —
// the experiments-level counterpart of core's parallel golden tests.
func TestE16ShardedSerialIdentical(t *testing.T) {
	var serial, sharded []E16Point
	withShards(t, 1, func() { serial, _ = E16(3 * sim.Millisecond) })
	withShards(t, 4, func() { sharded, _ = E16(3 * sim.Millisecond) })
	if !reflect.DeepEqual(serial, sharded) {
		t.Errorf("E16 sharded results differ from serial:\nserial: %+v\nsharded: %+v", serial, sharded)
	}
}
