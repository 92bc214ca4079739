package workload_test

import (
	"testing"
	"time"

	"earlybird/internal/analysis"
	"earlybird/internal/cluster"
	"earlybird/internal/noise"
	"earlybird/internal/workload"
)

// Failure injection: a clean normal workload plus an injected core
// slowdown must be detected by the laggard pipeline at close to the
// injection rate — validating the paper's attribution of laggards to OS
// noise.
func TestNoiseInjectionDetectedAsLaggards(t *testing.T) {
	base := &workload.NormalModel{AppName: "clean", MedianSec: 20e-3, SigmaSec: 0.05e-3}
	cfg := cluster.Config{Trials: 2, Ranks: 4, Iterations: 100, Threads: 48, Seed: 21}

	// Baseline: essentially no laggards.
	clean := mustRun(t, base, cfg)
	if st := analysis.Laggards(clean, 1e-3); st.Fraction > 0.01 {
		t.Fatalf("clean workload already has %.1f%% laggards", 100*st.Fraction)
	}

	// Inject: each thread independently suffers a 1.2x slowdown with
	// probability p; a process iteration shows a laggard when at least
	// one of its 48 threads is hit (1.2x of 20ms = +4ms >> 1ms rule).
	const p = 0.01
	noisy := &workload.Noisy{
		Base:  base,
		Noise: noise.CoreSlowdown{Prob: p, Factor: 1.2},
	}
	if noisy.Name() != "clean+noise" {
		t.Fatalf("name = %q", noisy.Name())
	}
	d := mustRun(t, noisy, cfg)
	st := analysis.Laggards(d, 1e-3)
	// Expected iteration-level hit rate: 1-(1-p)^48 ~ 38%.
	want := 1 - pow(1-p, 48)
	if st.Fraction < want-0.08 || st.Fraction > want+0.08 {
		t.Errorf("laggard fraction %.3f, want ~%.3f from injected noise", st.Fraction, want)
	}
	// The injected magnitude (~4ms) should dominate the mean laggard
	// magnitude.
	if st.MeanMagnitudeSec < 2.5e-3 || st.MeanMagnitudeSec > 6e-3 {
		t.Errorf("mean laggard magnitude %.2f ms, want ~4 ms", 1e3*st.MeanMagnitudeSec)
	}
}

func pow(x float64, n int) float64 {
	out := 1.0
	for i := 0; i < n; i++ {
		out *= x
	}
	return out
}

// Periodic-daemon noise inflates every thread roughly uniformly, so it
// must NOT present as laggards — it shifts the distribution instead.
func TestDaemonNoiseShiftsWithoutLaggards(t *testing.T) {
	base := &workload.NormalModel{AppName: "clean", MedianSec: 20e-3, SigmaSec: 0.05e-3}
	noisy := &workload.Noisy{
		Base:   base,
		Noise:  noise.PeriodicDaemon{Period: 100 * time.Microsecond, Cost: 5 * time.Microsecond, Affinity: 1},
		Suffix: "+daemon",
	}
	cfg := cluster.Config{Trials: 1, Ranks: 2, Iterations: 60, Threads: 48, Seed: 5}
	clean := mustRun(t, base, cfg)
	d := mustRun(t, noisy, cfg)
	mClean := analysis.ComputeMetrics(clean, 1e-3)
	mNoisy := analysis.ComputeMetrics(d, 1e-3)
	// ~200 wakeups x 5us = ~1ms shift in the median.
	shift := mNoisy.MeanMedianSec - mClean.MeanMedianSec
	if shift < 0.5e-3 || shift > 1.6e-3 {
		t.Errorf("median shift %.3f ms, want ~1 ms", 1e3*shift)
	}
	if mNoisy.LaggardFraction > 0.05 {
		t.Errorf("daemon noise produced %.1f%% laggards; expected near none", 100*mNoisy.LaggardFraction)
	}
}

// Noise streams must be deterministic so noisy studies stay reproducible.
func TestNoisyDeterminism(t *testing.T) {
	noisy := &workload.Noisy{
		Base:  workload.DefaultMiniFE(),
		Noise: noise.RandomInterrupt{Rate: 100, MeanCost: 20 * time.Microsecond},
	}
	cfg := cluster.Config{Trials: 1, Ranks: 1, Iterations: 10, Threads: 16, Seed: 3}
	a := mustRun(t, noisy, cfg).AllSamples()
	b := mustRun(t, noisy, cfg).AllSamples()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("noisy model not deterministic")
		}
	}
}

func TestNoisyNilNoisePassthrough(t *testing.T) {
	base := &workload.NormalModel{AppName: "x", MedianSec: 1e-3, SigmaSec: 0}
	noisy := &workload.Noisy{Base: base}
	cfg := cluster.Config{Trials: 1, Ranks: 1, Iterations: 2, Threads: 4, Seed: 1}
	a := mustRun(t, base, cfg).AllSamples()
	b := mustRun(t, noisy, cfg).AllSamples()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nil noise changed samples")
		}
	}
}
