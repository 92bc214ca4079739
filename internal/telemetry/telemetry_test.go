package telemetry

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for deterministic estimator
// tests.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1700000000, 0)}
}

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func testInfo(trials, ranks, iters, workers int) StudyInfo {
	return StudyInfo{
		ID: "test", App: "minife",
		Trials: trials, Ranks: ranks, Iterations: iters, Threads: 1,
		Workers: workers,
	}
}

// TestEWMAConvergesToConstantRate feeds a perfectly constant fill rate
// and checks the EWMA estimate converges to the true rate — the
// estimator is unbiased on the signal it is designed for.
func TestEWMAConvergesToConstantRate(t *testing.T) {
	const (
		rate = 200.0 // blocks per second
		step = 50 * time.Millisecond
	)
	clk := newFakeClock()
	tr := NewWithClock(testInfo(1000, 100, 100, 4), clk.now)

	blocksPerStep := int(rate * step.Seconds())
	// Run 10 tau of simulated time: far past the EWMA's memory.
	steps := int((10 * ewmaTau) / step)
	var p Progress
	for i := 0; i < steps; i++ {
		clk.advance(step)
		for b := 0; b < blocksPerStep; b++ {
			tr.ObserveFill(1, 10, time.Millisecond)
		}
		p = tr.Snapshot()
	}
	if rel := math.Abs(p.RateBlocksPerSec-rate) / rate; rel > 0.01 {
		t.Fatalf("EWMA rate %.3f blocks/s, want within 1%% of %.1f", p.RateBlocksPerSec, rate)
	}
	// ETA should agree with remaining/rate to the same tolerance.
	remaining := float64(p.BlocksTotal - p.BlocksDone)
	if remaining > 0 {
		want := remaining / rate
		if rel := math.Abs(p.ETASec-want) / want; rel > 0.02 {
			t.Fatalf("ETA %.3fs, want ~%.3fs", p.ETASec, want)
		}
	}
}

// TestEstimatorProperties drives random fill schedules (bursty rates,
// stalls, jittered snapshot cadence) through the estimator and asserts
// the invariants the ISSUE pins: ETA is never negative, efficiency
// stays in [0, 1], and trial progress is monotone.
func TestEstimatorProperties(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clk := newFakeClock()
		trials, ranks, iters := 1+rng.Intn(20), 1+rng.Intn(16), 1+rng.Intn(50)
		workers := 1 + rng.Intn(8)
		tr := NewWithClock(testInfo(trials, ranks, iters, workers), clk.now)
		total := int64(trials) * int64(ranks) * int64(iters)

		var fed int64
		lastTrials := 0
		var lastBlocks int64
		for fed < total {
			// Random burst: possibly a stall (zero blocks), then advance a
			// jittered interval and snapshot.
			burst := int64(rng.Intn(50))
			if burst > total-fed {
				burst = total - fed
			}
			for b := int64(0); b < burst; b++ {
				busy := time.Duration(rng.Intn(int(5 * time.Millisecond)))
				tr.ObserveFill(1, 1+rng.Intn(64), busy)
			}
			fed += burst
			if rng.Intn(4) == 0 {
				tr.ObserveLend(rng.Intn(workers))
			}
			clk.advance(time.Duration(1+rng.Intn(int(300*time.Millisecond))) + time.Millisecond)

			p := tr.Snapshot()
			if p.ETASec < 0 {
				t.Fatalf("seed %d: negative ETA %.3f", seed, p.ETASec)
			}
			if p.Efficiency < 0 || p.Efficiency > 1 {
				t.Fatalf("seed %d: efficiency %.3f out of [0,1]", seed, p.Efficiency)
			}
			if p.TrialsDone < lastTrials {
				t.Fatalf("seed %d: trials_done went backwards %d -> %d", seed, lastTrials, p.TrialsDone)
			}
			if p.TrialsDone > p.TrialsTotal {
				t.Fatalf("seed %d: trials_done %d > total %d", seed, p.TrialsDone, p.TrialsTotal)
			}
			if p.BlocksDone < lastBlocks {
				t.Fatalf("seed %d: blocks_done went backwards %d -> %d", seed, lastBlocks, p.BlocksDone)
			}
			lastTrials, lastBlocks = p.TrialsDone, p.BlocksDone
		}

		tr.Finish()
		p := tr.Snapshot()
		if !p.Done {
			t.Fatalf("seed %d: snapshot after Finish not done", seed)
		}
		if p.ETASec != 0 {
			t.Fatalf("seed %d: finished study has ETA %.3f, want 0", seed, p.ETASec)
		}
		if p.TrialsDone != trials || p.BlocksDone != total {
			t.Fatalf("seed %d: final progress %d/%d trials, %d/%d blocks",
				seed, p.TrialsDone, trials, p.BlocksDone, total)
		}
	}
}

// TestFinishFreezesElapsed pins that a finished tracker's elapsed clock
// (and therefore its efficiency) stops advancing.
func TestFinishFreezesElapsed(t *testing.T) {
	clk := newFakeClock()
	tr := NewWithClock(testInfo(2, 2, 2, 1), clk.now)
	clk.advance(time.Second)
	tr.ObserveFill(1, 8, 500*time.Millisecond)
	tr.Finish()
	frozen := tr.Snapshot()
	clk.advance(time.Hour)
	later := tr.Snapshot()
	if later.ElapsedSec != frozen.ElapsedSec {
		t.Fatalf("elapsed advanced after Finish: %.3f -> %.3f", frozen.ElapsedSec, later.ElapsedSec)
	}
	if later.Efficiency != frozen.Efficiency {
		t.Fatalf("efficiency changed after Finish: %.3f -> %.3f", frozen.Efficiency, later.Efficiency)
	}
	if want := 0.5; math.Abs(later.Efficiency-want) > 1e-9 {
		t.Fatalf("efficiency %.3f, want %.3f", later.Efficiency, want)
	}
}

// TestRegistryAggregation exercises the registry: live efficiency
// weighting, lifetime totals folding, MinETA and the completed ring.
func TestRegistryAggregation(t *testing.T) {
	r := NewRegistry()
	if _, ok := r.Efficiency(); ok {
		t.Fatal("empty registry reported a live efficiency signal")
	}
	if _, ok := r.MinETA(); ok {
		t.Fatal("empty registry reported a MinETA")
	}

	clk := newFakeClock()
	big := NewWithClock(StudyInfo{ID: "big", App: "a", Trials: 10, Ranks: 10, Iterations: 10, Workers: 4}, clk.now)
	small := NewWithClock(StudyInfo{ID: "small", App: "b", Trials: 1, Ranks: 1, Iterations: 10, Workers: 1}, clk.now)
	r.Register(big)
	r.Register(small)
	clk.advance(10 * time.Second)
	// big: 20s busy over 4 workers x 10s = 0.5; small: 1s over 1x10s = 0.1.
	big.ObserveFill(1, 100, 20*time.Second)
	small.ObserveFill(1, 10, time.Second)
	eff, ok := r.Efficiency()
	if !ok {
		t.Fatal("no live signal with two active studies")
	}
	// Aggregate is (20+1)/(40+10) = 0.42, not the 0.3 mean of ratios.
	if want := 21.0 / 50.0; math.Abs(eff-want) > 1e-9 {
		t.Fatalf("aggregate efficiency %.4f, want %.4f", eff, want)
	}

	// Advance so both get a known rate, then MinETA picks the smaller.
	big.Snapshot()
	small.Snapshot()
	clk.advance(time.Second)
	big.ObserveFill(1, 1, 0)
	small.ObserveFill(1, 1, 0)
	big.Snapshot()
	small.Snapshot()
	if eta, ok := r.MinETA(); !ok || eta <= 0 {
		t.Fatalf("MinETA = %v, %v; want a positive ETA", eta, ok)
	}

	r.Finish(small)
	if got := r.ActiveCount(); got != 1 {
		t.Fatalf("ActiveCount = %d after finishing one of two", got)
	}
	if _, ok := r.Get("small"); !ok {
		t.Fatal("finished tracker fell out of the completed ring immediately")
	}
	r.Finish(big)
	tot := r.Totals()
	if tot.StudiesStarted != 2 || tot.StudiesFinished != 2 || tot.ActiveStudies != 0 {
		t.Fatalf("totals = %+v", tot)
	}
	if tot.Blocks != 4 || tot.Samples != 112 {
		t.Fatalf("blocks/samples = %d/%d, want 4/112", tot.Blocks, tot.Samples)
	}
	if want := 21.0; math.Abs(tot.BusySeconds-want) > 1e-9 {
		t.Fatalf("busy seconds %.3f, want %.3f", tot.BusySeconds, want)
	}

	// The completed ring is bounded: old entries fall out.
	for i := 0; i < completedKeep+5; i++ {
		tr := NewWithClock(StudyInfo{ID: string(rune('A'+i%26)) + string(rune('a'+i/26)), Workers: 1}, clk.now)
		r.Register(tr)
		r.Finish(tr)
	}
	if _, ok := r.Get("big"); ok {
		t.Fatal("oldest completed tracker survived past the ring bound")
	}
}

// TestHistogram pins cumulative bucket semantics and the sum.
func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5, 0.05} {
		h.Observe(v)
	}
	snap := h.Snapshot()
	want := []int64{1, 3, 4, 5}
	for i, c := range snap.Cumulative {
		if c != want[i] {
			t.Fatalf("cumulative[%d] = %d, want %d (all %v)", i, c, want[i], snap.Cumulative)
		}
	}
	if snap.Count != 5 {
		t.Fatalf("count = %d, want 5", snap.Count)
	}
	if math.Abs(snap.Sum-5.605) > 1e-9 {
		t.Fatalf("sum = %v, want 5.605", snap.Sum)
	}
	// Boundary value lands in its own bucket (le is inclusive).
	h2 := NewHistogram([]float64{1})
	h2.Observe(1)
	if got := h2.Snapshot().Cumulative[0]; got != 1 {
		t.Fatalf("observation at the bound fell into the +Inf bucket (%d)", got)
	}
}

// TestPromWriter pins the exposition text for each family shape.
func TestPromWriter(t *testing.T) {
	var b strings.Builder
	p := NewPromWriter(&b)
	p.Counter("c_total", "A counter.", 3)
	p.Gauge("g", "A gauge.", 0.5, "k", `v"quoted\`)
	h := NewHistogram([]float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(2)
	p.HistogramVec("lat_seconds", "Latency.")
	p.HistogramSample("lat_seconds", h.Snapshot(), "path", "/x")
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	for _, want := range []string{
		"# HELP c_total A counter.\n# TYPE c_total counter\nc_total 3\n",
		"# TYPE g gauge\n" + `g{k="v\"quoted\\"} 0.5` + "\n",
		"# TYPE lat_seconds histogram\n",
		`lat_seconds_bucket{path="/x",le="0.1"} 1`,
		`lat_seconds_bucket{path="/x",le="1"} 1`,
		`lat_seconds_bucket{path="/x",le="+Inf"} 2`,
		`lat_seconds_sum{path="/x"} 2.05`,
		`lat_seconds_count{path="/x"} 2`,
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("exposition missing %q:\n%s", want, got)
		}
	}
}
