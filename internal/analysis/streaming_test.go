package analysis

import (
	"math"
	"testing"

	"earlybird/internal/cluster"
	"earlybird/internal/workload"
)

// TestComputeMetricsStreamingRangeMatchesInRange: a range-restricted
// cursor must reproduce ComputeMetricsInRange — the phase-wise analysis
// path (MiniMD) — exactly for the non-sketch fields.
func TestComputeMetricsStreamingRangeMatchesInRange(t *testing.T) {
	model := &workload.MiniMD{}
	cfg := cluster.Config{Trials: 2, Ranks: 2, Iterations: 40, Threads: 24, Seed: 2}
	d, err := cluster.Run(model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const from, to = 5, 25
	exact := ComputeMetricsInRange(d, DefaultLaggardThresholdSec, from, to)
	got := ComputeMetricsStreaming(d.App, d.CursorRange(from, to), DefaultLaggardThresholdSec)

	rel := func(a, b float64) float64 {
		if a == b {
			return 0
		}
		return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
	}
	if rel(got.MeanMedianSec, exact.MeanMedianSec) > 1e-9 ||
		got.LaggardFraction != exact.LaggardFraction ||
		rel(got.AvgReclaimableProcSec, exact.AvgReclaimableProcSec) > 1e-9 ||
		rel(got.AvgReclaimableAppIterSec, exact.AvgReclaimableAppIterSec) > 1e-9 {
		t.Fatalf("streaming range metrics %+v vs exact %+v", got, exact)
	}
	if rel(got.IQRMeanSec, exact.IQRMeanSec) > 0.10 {
		t.Fatalf("IQRMeanSec %v vs %v", got.IQRMeanSec, exact.IQRMeanSec)
	}
}

// TestMetricsAccumulatorMergeOrderIndependent: merging shards in
// different orders must give the same result up to float rounding.
func TestMetricsAccumulatorMergeOrderIndependent(t *testing.T) {
	model := &workload.MiniFE{}
	cfg := cluster.Config{Trials: 2, Ranks: 2, Iterations: 12, Threads: 16, Seed: 9}
	d, err := cluster.Run(model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	build := func(order []int) AppMetrics {
		// One accumulator per trial, merged in the given order.
		accs := make([]*MetricsAccumulator, cfg.Trials)
		for i := range accs {
			accs[i] = NewMetricsAccumulator(d.App, DefaultLaggardThresholdSec)
		}
		d.EachProcessIteration(func(trial, rank, iter int, xs []float64) {
			accs[trial].ObserveBlock(trial, rank, iter, xs)
		})
		root := NewMetricsAccumulator(d.App, DefaultLaggardThresholdSec)
		for _, i := range order {
			root.Merge(accs[i])
		}
		return root.Finalize()
	}
	a := build([]int{0, 1})
	b := build([]int{1, 0})
	if a.LaggardFraction != b.LaggardFraction ||
		math.Abs(a.MeanMedianSec-b.MeanMedianSec) > 1e-12 {
		t.Fatalf("merge order changed results: %+v vs %+v", a, b)
	}
}

// TestTable1StreamingMatchesTable1Row: a Table1Accumulator fed by a block
// kernel over the cursor must give the exact pass rates — the battery
// runs on the same blocks either way.
func TestTable1StreamingMatchesTable1Row(t *testing.T) {
	model := &workload.MiniQMC{}
	cfg := cluster.Config{Trials: 2, Ranks: 2, Iterations: 15, Threads: 24, Seed: 4}
	d, err := cluster.Run(model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	exact := Table1Row(d, 0.05)
	acc := NewTable1Accumulator(d.App, 0.05)
	NewKernel(acc).ObserveCursor(d.Cursor(), 0)
	got := acc.Finalize()
	if got != exact {
		t.Fatalf("streaming Table1 %+v vs exact %+v", got, exact)
	}
}

// TestMergeThenReleaseKeepsTarget pins Merge's hand-over of iteration
// histograms: after a.Merge(o) and o.Release(), a finalizes and encodes
// exactly as when o is never released — o gave up the histograms a
// adopted, into an empty accumulator or beside a's own iterations, and
// kept only those it folded into a's.
func TestMergeThenReleaseKeepsTarget(t *testing.T) {
	cfg := cluster.Config{Trials: 3, Ranks: 2, Iterations: 12, Threads: 48, Seed: 4}
	d, err := cluster.Run(workload.DefaultMiniFE(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// part observes trial t's blocks of iterations [lo, hi).
	part := func(t0, lo, hi int) *MetricsAccumulator {
		acc := NewMetricsAccumulator(d.App, DefaultLaggardThresholdSec)
		d.EachProcessIteration(func(trial, rank, iter int, xs []float64) {
			if trial == t0 && iter >= lo && iter < hi {
				acc.ObserveBlock(trial, rank, iter, xs)
			}
		})
		return acc
	}
	build := func(release bool) ([]byte, AppMetrics) {
		root := NewMetricsAccumulator(d.App, DefaultLaggardThresholdSec)
		// An empty root, then overlapping and new iterations.
		for _, o := range []*MetricsAccumulator{part(0, 0, 8), part(1, 4, 12), part(2, 0, 12)} {
			root.Merge(o)
			if release {
				o.Release()
			}
		}
		enc, err := root.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return enc, root.Finalize()
	}
	wantEnc, want := build(false)
	gotEnc, got := build(true)
	if string(gotEnc) != string(wantEnc) || got != want {
		t.Fatalf("releasing merged accumulators changed the target:\n got %+v\nwant %+v", got, want)
	}
}
