package stats

import (
	"math/rand/v2"
	"testing"

	"earlybird/internal/sortx"
)

func benchData(n int) []float64 {
	r := rand.New(rand.NewPCG(1, 2))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 26.3e-3 + 0.18e-3*r.NormFloat64()
	}
	return xs
}

func BenchmarkPercentile(b *testing.B) {
	xs := benchData(3840)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Percentile(xs, 95)
	}
}

func BenchmarkHistogram10usBins(b *testing.B) {
	xs := benchData(768000)
	b.SetBytes(int64(len(xs) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewHistogram(xs, 10e-6)
	}
}

func BenchmarkNormalQuantile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		NormalQuantile(float64(i%1000+1) / 1002)
	}
}

func BenchmarkNormalCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		NormalCDF(float64(i%13) - 6)
	}
}

// histogramBlocks returns n sorted 48-sample blocks shaped like the
// paper's process iterations: a 26.3 ms mean that shifts from block to
// block by 0.6 ms, a 0.4 ms spread and 5% laggards up to 2 ms late.
// Fed eight to a histogram, as a shard's ranks feed an application
// iteration's, they raise its level 207 times per 1,600 blocks, within
// the 140-268 that one-trial 8-rank shards of the three workloads see.
func histogramBlocks(n int) [][]float64 {
	r := rand.New(rand.NewPCG(3, 4))
	blocks := make([][]float64, n)
	for i := range blocks {
		mean := 26.3e-3 + 0.6e-3*r.NormFloat64()
		xs := make([]float64, 48)
		for j := range xs {
			xs[j] = mean + 0.4e-3*r.NormFloat64()
			if r.Float64() < 0.05 {
				xs[j] += 2e-3 * r.Float64()
			}
		}
		sortx.Sort(xs)
		blocks[i] = xs
	}
	return blocks
}

// BenchmarkQuantileHistogramAddSorted times a shard's iteration
// histograms: per op, 200 fresh histograms, one per application
// iteration, each fed 8 sorted 48-sample blocks, one per rank. Each op
// starts its 1,600 blocks at the next offset into a pool of 4,096, so
// the inputs rotate and no branch history can memorise them.
func BenchmarkQuantileHistogramAddSorted(b *testing.B) {
	const iters, ranks, pool = 200, 8, 4096
	blocks := histogramBlocks(pool)
	hs := make([]QuantileHistogram, iters)
	start := 0
	for b.Loop() {
		for i := range hs {
			if c := hs[i].counts; c != nil {
				clear(c[:])
				hs[i] = QuantileHistogram{counts: c}
			}
			for r := 0; r < ranks; r++ {
				hs[i].AddSorted(blocks[(start+i*ranks+r)%pool])
			}
		}
		start = (start + iters*ranks) % pool
	}
}
