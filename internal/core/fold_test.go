package core

import (
	"bytes"
	"runtime"
	"testing"

	"earlybird/internal/analysis"
	"earlybird/internal/cluster"
	"earlybird/internal/dlb"
	"earlybird/internal/workload"
)

// TestFoldTrialsBitIdenticalAtAnyWorkerCount pins the over-bound shard's
// exactness: trials [1, 4) of a five-trial cell folded on 1, 2, 3 and 7
// requested workers (static stripes that split trials between workers,
// and whole rebalanced trials) encode to the same metrics and Table 1
// state as a block kernel over the cached cursor of those trials — the
// shard a worker answers below the sweep cache bound.
func TestFoldTrialsBitIdenticalAtAnyWorkerCount(t *testing.T) {
	geom := cluster.Config{Trials: 5, Ranks: 4, Iterations: 30, Threads: 48, Seed: 17}
	const lo, hi = 1, 4
	shard := geom
	shard.Trials = hi - lo
	encode := func(m *analysis.MetricsAccumulator, t1 *analysis.Table1Accumulator) []byte {
		t.Helper()
		mb, err := m.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		tb, err := t1.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return append(mb, tb...)
	}
	for _, model := range []workload.Model{workload.DefaultMiniFE(), workload.DefaultMiniMD()} {
		for _, policy := range []dlb.Spec{{}, {Policy: dlb.PolicyLeWI}} {
			col, err := cluster.RunColumnar(cluster.ShiftTrials(model, lo), shard, policy, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			macc := analysis.NewMetricsAccumulator(model.Name(), analysis.DefaultLaggardThresholdSec)
			tacc := analysis.NewTable1Accumulator(model.Name(), 0.05)
			analysis.NewKernel(macc, tacc).ObserveCursor(col.Cursor(), lo)
			want := encode(macc, tacc)
			for _, workers := range []int{1, 2, 3, 7} {
				macc := analysis.NewMetricsAccumulator(model.Name(), analysis.DefaultLaggardThresholdSec)
				tacc := analysis.NewTable1Accumulator(model.Name(), 0.05)
				if err := foldTrials(model, geom, policy, lo, hi, workers, 1<<30, macc, tacc, nil, nil); err != nil {
					t.Fatal(err)
				}
				if got := encode(macc, tacc); !bytes.Equal(got, want) {
					t.Errorf("%s %s, %d workers: folded state differs from the cursor's", model.Name(), policy, workers)
				}
			}
		}
	}
}

// TestFoldWorkers pins the fold's worker-count rule: the most workers,
// up to the request and the fill's tasks, whose extra state — an
// iteration-histogram set per worker past the first plus the open trial
// tables — fits the budget.
func TestFoldWorkers(t *testing.T) {
	paper, huge := cluster.DefaultConfig(), cluster.HugeConfig()
	hugeTrial := huge
	hugeTrial.Trials = 1
	wide := cluster.Config{Trials: 1, Ranks: 1 << 50, Iterations: 1 << 16, Threads: 48}
	const sweepBudget = 4 * 768000 * 8 // serve's DefaultMaxCachedSweepSamples x 8 bytes
	cases := []struct {
		name      string
		geom      cluster.Config
		static    bool
		requested int
		budget    int64
		workers   int
	}{
		{"an 8-byte budget", paper, true, 8, 8, 1},
		{"paper geometry", paper, true, 8, streamStateBudget, 8},
		{"paper geometry, every task", paper, true, 200, streamStateBudget, 80},
		{"paper geometry, rebalanced", paper, false, 64, streamStateBudget, 10},
		{"HugeConfig", huge, true, 64, streamStateBudget, 2},
		{"HugeConfig at the default sweep budget", huge, true, 64, sweepBudget, 1},
		{"a one-trial HugeConfig shard at the default sweep budget", hugeTrial, true, 64, sweepBudget, 2},
		{"a table over the budget", huge, true, 64, 4 << 20, 1},
		{"a table overflowing int64", wide, true, 64, 1 << 62, 1},
		{"a rebalanced trial over the budget", huge, false, 64, 4 << 20, 0},
		{"a rebalanced trial whose table fits", huge, false, 64, 6 << 20, 1},
	}
	for _, c := range cases {
		if w := foldWorkers(c.geom, c.static, c.requested, c.budget); w != c.workers {
			t.Errorf("%s: %d workers, want %d", c.name, w, c.workers)
		}
	}
}

// TestFoldStateBoundedAtAnyWorkerCount pins that the fold, not the
// machine, sets StreamStudy's memory: HugeConfig asked for 64 workers
// grows the heap footprint by less than half the 614 MB tensor, the
// bound TestStreamingStudyBoundedMemory holds StreamStudy to (64
// histogram sets alone would be 650 MB). Skipped with -short and under
// -race.
func TestFoldStateBoundedAtAnyWorkerCount(t *testing.T) {
	if testing.Short() {
		t.Skip("76.8M-sample study skipped with -short")
	}
	if raceEnabled {
		t.Skip("76.8M-sample study skipped under -race")
	}
	geom := cluster.HugeConfig()
	bound := uint64(geom.Samples()) * 8 / 2
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := streamRun(Options{App: "minife", Geometry: geom}, true, true, 64)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	grew := after.HeapSys - before.HeapSys
	t.Logf("heap footprint grew %d MB", grew/1e6)
	if grew > bound {
		t.Errorf("heap footprint grew %d MB at 64 requested workers, want < %d MB", grew/1e6, bound/1e6)
	}
	if res.Samples() != int64(geom.Samples()) {
		t.Fatalf("streamed %d samples, want %d", res.Samples(), geom.Samples())
	}
}
