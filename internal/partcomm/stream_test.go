package partcomm

import (
	"math"
	"sync"
	"testing"

	"earlybird/internal/analysis"
	"earlybird/internal/cluster"
	"earlybird/internal/dlb"
	"earlybird/internal/network"
	"earlybird/internal/trace"
	"earlybird/internal/workload"
)

// paperColumnar generates the MiniFE study at the paper's full geometry
// once and shares it between the agreement test and the sweep benchmark.
var (
	paperOnce sync.Once
	paperCol  *trace.Columnar
)

func paperColumnar(tb testing.TB) *trace.Columnar {
	tb.Helper()
	paperOnce.Do(func() {
		model, err := workload.ByName("minife")
		if err != nil {
			panic(err)
		}
		col, err := cluster.RunColumnar(model, cluster.DefaultConfig(), dlb.Spec{}, 0, nil)
		if err != nil {
			panic(err)
		}
		paperCol = col
	})
	return paperCol
}

// testGrid returns a fresh strategy grid covering every strategy family;
// adaptive strategies are stateful, so each evaluation path needs its
// own instances.
func testGrid() []Strategy {
	return []Strategy{
		Bulk{},
		FineGrained{},
		Binned{TimeoutSec: 1e-3},
		CountThreshold{K: 8},
		&EWMABinned{Alpha: 0.2},
		Hybrid{},
		LaggardAware{ThresholdSec: 1e-3},
	}
}

func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if d == 0 {
		return 0
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return d / m
}

// TestEvaluateStreamMatchesMaterializedPaperGeometry: at the paper's
// full geometry, the cursor-native evaluation must agree with the
// pre-cursor materialised implementation on every strategy — including
// the adaptive ones, which see iterations in the identical
// (trial, rank, iteration) order on both paths. This is the strategy
// lab's counterpart of PR 2's streaming-vs-exact agreement tests.
func TestEvaluateStreamMatchesMaterializedPaperGeometry(t *testing.T) {
	if testing.Short() {
		t.Skip("paper geometry in -short mode")
	}
	col := paperColumnar(t)
	f := network.OmniPath()
	const bytesPerPart = 1 << 20

	streamed := EvaluateStream(col.Cursor(), bytesPerPart, f, testGrid())
	exact := evaluateMaterialized(col.Dataset(), bytesPerPart, f, testGrid())

	if len(streamed) != len(exact) {
		t.Fatalf("streamed %d results, exact %d", len(streamed), len(exact))
	}
	for i := range streamed {
		if streamed[i].Strategy != exact[i].Strategy {
			t.Fatalf("result %d: strategy %q vs %q", i, streamed[i].Strategy, exact[i].Strategy)
		}
		for _, c := range []struct {
			what      string
			got, want float64
		}{
			{"MeanFinishSec", streamed[i].MeanFinishSec, exact[i].MeanFinishSec},
			{"MeanOverlapSec", streamed[i].MeanOverlapSec, exact[i].MeanOverlapSec},
			{"SpeedupVsBulk", streamed[i].SpeedupVsBulk, exact[i].SpeedupVsBulk},
			{"OverlapCapture", streamed[i].OverlapCapture, exact[i].OverlapCapture},
		} {
			if relDiff(c.got, c.want) > 1e-12 {
				t.Errorf("%s/%s: streaming %v vs exact %v", streamed[i].Strategy, c.what, c.got, c.want)
			}
		}
	}
}

// TestEvaluateAdapterMatchesStream: the nested dataset view's cursor
// must evaluate to exactly the columnar cursor's results (Binned's Name
// stays stable for golden files).
func TestEvaluateAdapterMatchesStream(t *testing.T) {
	model, err := workload.ByName("minimd")
	if err != nil {
		t.Fatal(err)
	}
	col, err := cluster.RunColumnar(model, cluster.Config{Trials: 1, Ranks: 2, Iterations: 20, Threads: 48, Seed: 7}, dlb.Spec{}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	strategies := []Strategy{Bulk{}, FineGrained{}, Binned{TimeoutSec: 1e-3}}
	viaAdapter := EvaluateStream(col.Dataset().Cursor(), 1<<20, network.OmniPath(), strategies)
	viaCursor := EvaluateStream(col.Cursor(), 1<<20, network.OmniPath(), strategies)
	for i := range viaAdapter {
		if viaAdapter[i] != viaCursor[i] {
			t.Errorf("result %d: adapter %+v vs cursor %+v", i, viaAdapter[i], viaCursor[i])
		}
	}
	if got := viaAdapter[2].Strategy; got != "binned(1000us)" {
		t.Errorf("Binned name changed: %q", got)
	}
}

// TestStrategyAccumulatorMerge: for stateless strategies, accumulators
// over disjoint block partitions merge to the sequential result.
func TestStrategyAccumulatorMerge(t *testing.T) {
	model, err := workload.ByName("miniqmc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Config{Trials: 1, Ranks: 2, Iterations: 16, Threads: 48, Seed: 3}
	col, err := cluster.RunColumnar(model, cfg, dlb.Spec{}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	strategies := func() []Strategy {
		return []Strategy{Bulk{}, FineGrained{}, Binned{TimeoutSec: 0.5e-3}}
	}
	f := network.OmniPath()

	seq := NewStrategyAccumulator(strategies(), 1<<18, f)
	a := NewStrategyAccumulator(strategies(), 1<<18, f)
	b := NewStrategyAccumulator(strategies(), 1<<18, f)
	i := 0
	for cur := col.Cursor(); cur.Next(); i++ {
		blk := cur.Block()
		seq.ObserveBlock(blk.Trial, blk.Rank, blk.Iter, blk.Times)
		if i%2 == 0 {
			a.ObserveBlock(blk.Trial, blk.Rank, blk.Iter, blk.Times)
		} else {
			b.ObserveBlock(blk.Trial, blk.Rank, blk.Iter, blk.Times)
		}
	}
	a.Merge(b)
	if a.Iterations() != seq.Iterations() {
		t.Fatalf("merged %d iterations, want %d", a.Iterations(), seq.Iterations())
	}
	got, want := a.Finalize(), seq.Finalize()
	for k := range want {
		if relDiff(got[k].MeanFinishSec, want[k].MeanFinishSec) > 1e-12 ||
			relDiff(got[k].MeanOverlapSec, want[k].MeanOverlapSec) > 1e-9 {
			t.Errorf("%s: merged %+v vs sequential %+v", want[k].Strategy, got[k], want[k])
		}
	}
	if relDiff(a.PotentialOverlapSec(), seq.PotentialOverlapSec()) > 1e-12 {
		t.Errorf("potential: merged %v vs sequential %v", a.PotentialOverlapSec(), seq.PotentialOverlapSec())
	}
}

// TestSweepFrontierPicksMinimumFinish: the frontier names the strategy
// with the smallest mean finish time and copies its row's values.
func TestSweepFrontierPicksMinimumFinish(t *testing.T) {
	col := smallSyntheticColumnar(t)
	sw := SweepCursor(col.Cursor(), 1<<20, network.OmniPath(), testGrid())
	if len(sw.Results) != len(testGrid()) {
		t.Fatalf("got %d results, want %d", len(sw.Results), len(testGrid()))
	}
	best := sw.Results[0]
	for _, r := range sw.Results[1:] {
		if r.MeanFinishSec < best.MeanFinishSec {
			best = r
		}
	}
	if sw.Best != best.Strategy || sw.BestFinishSec != best.MeanFinishSec {
		t.Errorf("frontier %q/%v, want %q/%v", sw.Best, sw.BestFinishSec, best.Strategy, best.MeanFinishSec)
	}
	if sw.BestOverlapSec != best.MeanOverlapSec || sw.BestCapture != best.OverlapCapture {
		t.Errorf("frontier row values diverged from best result")
	}
	if sw.PotentialOverlapSec <= 0 {
		t.Errorf("potential overlap = %v, want > 0", sw.PotentialOverlapSec)
	}
}

func smallSyntheticColumnar(t *testing.T) *trace.Columnar {
	t.Helper()
	model, err := workload.ByName("minife")
	if err != nil {
		t.Fatal(err)
	}
	col, err := cluster.RunColumnar(model, cluster.Config{Trials: 1, Ranks: 1, Iterations: 12, Threads: 48, Seed: 11}, dlb.Spec{}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return col
}

// TestTuneLaggardAware: the tuned threshold is half the mean laggard
// magnitude, floored at the paper's 1 ms rule.
func TestTuneLaggardAware(t *testing.T) {
	if got := TuneLaggardAware(analysis.LaggardStats{MeanMagnitudeSec: 8e-3}); got.ThresholdSec != 4e-3 {
		t.Errorf("tuned threshold = %v, want 4ms", got.ThresholdSec)
	}
	if got := TuneLaggardAware(analysis.LaggardStats{MeanMagnitudeSec: 0.4e-3}); got.ThresholdSec != analysis.DefaultLaggardThresholdSec {
		t.Errorf("tuned threshold = %v, want the 1ms floor", got.ThresholdSec)
	}
	if got := TuneLaggardAware(analysis.LaggardStats{}); got.ThresholdSec != analysis.DefaultLaggardThresholdSec {
		t.Errorf("no-laggard tuning = %v, want the 1ms floor", got.ThresholdSec)
	}
}

// TestEWMABinnedDeterministicPerInstance: EWMABinned evaluations are
// deterministic — fresh instances agree, and because every evaluation
// entry point resets adaptive state up front, *reusing* one instance
// (as core.Options.Strategies does across repeated Feasibility calls)
// reproduces the identical result.
func TestEWMABinnedDeterministicPerInstance(t *testing.T) {
	col := smallSyntheticColumnar(t)
	f := network.OmniPath()
	run := func(e *EWMABinned) []Result {
		return EvaluateStream(col.Cursor(), 1<<20, f, []Strategy{e})
	}
	first := run(&EWMABinned{Alpha: 0.3})
	second := run(&EWMABinned{Alpha: 0.3})
	if first[0] != second[0] {
		t.Errorf("fresh instances diverged: %+v vs %+v", first[0], second[0])
	}
	e := &EWMABinned{Alpha: 0.3}
	run(e)
	if got := run(e); got[0] != first[0] {
		t.Errorf("reused instance diverged (state not reset): %+v vs %+v", got[0], first[0])
	}
}

// BenchmarkStrategySweep compares the cursor-native evaluator against
// the materialised reference at the paper's geometry: identical numbers,
// but the streaming path reuses one scratch buffer per accumulator while
// the materialised path allocates a sorted copy per process iteration.
// make bench-json records this as BENCH_strategies.json; the acceptance
// bar is streaming B/op strictly below materialised B/op.
func BenchmarkStrategySweep(b *testing.B) {
	col := paperColumnar(b)
	f := network.OmniPath()
	const bytesPerPart = 1 << 20

	b.Run("streaming", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res := EvaluateStream(col.Cursor(), bytesPerPart, f, testGrid())
			if len(res) == 0 {
				b.Fatal("empty results")
			}
		}
	})
	b.Run("materialized", func(b *testing.B) {
		ds := col.Dataset() // view built outside the timer, as the engine cache would
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res := evaluateMaterialized(ds, bytesPerPart, f, testGrid())
			if len(res) == 0 {
				b.Fatal("empty results")
			}
		}
	})
}
