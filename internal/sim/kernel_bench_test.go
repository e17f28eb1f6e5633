package sim

import "testing"

// BenchmarkPostDispatch measures one dispatch plus one schedule against
// 1000 pending events, each of which schedules itself again d later when
// it fires:
//   - near: PostAfter of 10 µs, which lands in the timing wheel;
//   - far: PostAfter of 5 ms, past the wheel's horizon in the overflow heap;
//   - boundary: ReserveSeq plus PostBoundary 10 µs ahead, the way a fiber
//     delay line queues its head cell.
//
// near and far mirror the atmperf leaves sim.post_near_ns and
// sim.post_far_ns. Run with
//
//	go test ./internal/sim -run '^$' -bench PostDispatch
func BenchmarkPostDispatch(b *testing.B) {
	const pending = 1000
	repost := func(d Duration) func(k *Kernel) {
		return func(k *Kernel) {
			var fn func()
			fn = func() { k.PostAfter(d, fn) }
			for i := 0; i < pending; i++ {
				k.PostAfter(Duration(i)*d/pending, fn)
			}
		}
	}
	boundary := func(k *Kernel) {
		const d = 10 * Microsecond
		var afn func(any)
		afn = func(any) {
			now := k.Now()
			k.PostBoundary(now+d, now, k.Lane(), k.ReserveSeq(), afn, nil)
		}
		for i := 0; i < pending; i++ {
			k.PostBoundary(Duration(i)*d/pending, 0, k.Lane(), k.ReserveSeq(), afn, nil)
		}
	}
	for _, bc := range []struct {
		name  string
		setup func(k *Kernel)
	}{
		{"near", repost(10 * Microsecond)},
		{"far", repost(5 * Millisecond)},
		{"boundary", boundary},
	} {
		b.Run(bc.name, func(b *testing.B) {
			k := NewKernel()
			bc.setup(k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.Step()
			}
		})
	}
}
