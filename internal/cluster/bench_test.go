package cluster

import (
	"testing"

	"earlybird/internal/dlb"
	"earlybird/internal/workload"
)

// BenchmarkRunQuickGeometry measures generating one reduced study
// (3 x 4 x 60 x 48 = 34560 samples).
func BenchmarkRunQuickGeometry(b *testing.B) {
	cfg := Config{Trials: 3, Ranks: 4, Iterations: 60, Threads: 48, Seed: 1}
	for _, m := range []workload.Model{
		workload.DefaultMiniFE(), workload.DefaultMiniMD(), workload.DefaultMiniQMC(),
	} {
		b.Run(m.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Run(m, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFillDLB measures full-study fill throughput at the paper's
// geometry (10 x 8 x 200 x 48 = 768000 samples) under the static layout
// and under LeWI rebalancing — the comparison make bench-json publishes
// as BENCH_dlb.json. The delta is the cost of the trial-major fill plus
// the per-iteration balancer decisions.
func BenchmarkFillDLB(b *testing.B) {
	cfg := DefaultConfig()
	model := workload.DefaultMiniFE()
	for _, policy := range []dlb.Spec{{}, {Policy: dlb.PolicyLeWI}} {
		b.Run(policy.Name(), func(b *testing.B) {
			b.SetBytes(int64(cfg.Samples()) * 8)
			for i := 0; i < b.N; i++ {
				if _, err := RunColumnar(model, cfg, policy, 0, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
