package omp

import (
	"sync/atomic"
	"testing"
)

func BenchmarkParallelForkJoin(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(benchName("threads", n), func(b *testing.B) {
			p := NewPool(n)
			defer p.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Parallel(func(tc *ThreadContext) {})
			}
		})
	}
}

func BenchmarkBarrier(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(benchName("threads", n), func(b *testing.B) {
			p := NewPool(n)
			defer p.Close()
			b.ResetTimer()
			iters := b.N
			p.Parallel(func(tc *ThreadContext) {
				for i := 0; i < iters; i++ {
					tc.Barrier()
				}
			})
		})
	}
}

func BenchmarkParallelForSchedules(b *testing.B) {
	const n = 4096
	var sink atomic.Int64
	for _, sched := range []Schedule{Static, Dynamic, Guided} {
		b.Run(sched.String(), func(b *testing.B) {
			p := NewPool(4)
			defer p.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Parallel(func(tc *ThreadContext) {
					tc.For(n, sched, 16, func(j int) { sink.Add(int64(j & 1)) })
				})
			}
		})
	}
}

func benchName(prefix string, n int) string {
	return prefix + "=" + string(rune('0'+n))
}
