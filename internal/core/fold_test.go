package core

import (
	"bytes"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"earlybird/internal/analysis"
	"earlybird/internal/cluster"
	"earlybird/internal/dlb"
	"earlybird/internal/workload"
)

// TestFoldTrialsBitIdenticalAtAnyWorkerCount pins the over-bound shard's
// exactness: trials [1, 4) of a five-trial cell folded on 1, 2, 3 and 7
// requested workers (static stripes that split trials between workers,
// and whole rebalanced trials) encode to the same metrics and Table 1
// state as a block kernel over a columnar cursor of those trials.
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
				if err := foldTrials(model, geom, policy, lo, hi, workers, macc, tacc, nil, nil); err != nil {
					t.Fatal(err)
				}
				if got := encode(macc, tacc); !bytes.Equal(got, want) {
					t.Errorf("%s %s, %d workers: folded state differs from the cursor's", model.Name(), policy, workers)
				}
			}
		}
	}
}

// TestFoldReadingsMatchesOneFoldPerReading pins the shared fill of a
// sweep's alpha and laggard cells: one FoldReadings over two laggard
// thresholds and two alphas leaves every accumulator with the bytes the
// fold of its reading alone (foldTrials) gives it, static and LeWI, on
// one worker and on three, and over a trial range that starts past
// zero.
func TestFoldReadingsMatchesOneFoldPerReading(t *testing.T) {
	geom := cluster.Config{Trials: 4, Ranks: 3, Iterations: 20, Threads: 48, Seed: 29}
	const lo, hi = 1, 4
	laggards, alphas := []float64{1e-3, 2e-4}, []float64{0.05, 0.01}
	encode := func(state interface{ MarshalBinary() ([]byte, error) }) []byte {
		t.Helper()
		b, err := state.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	model := workload.DefaultMiniMD()
	for _, policy := range []dlb.Spec{{}, {Policy: dlb.PolicyLeWI}} {
		var wantM, wantT [][]byte
		for i := range laggards {
			macc := analysis.NewMetricsAccumulator(model.Name(), laggards[i])
			tacc := analysis.NewTable1Accumulator(model.Name(), alphas[i])
			if err := foldTrials(model, geom, policy, lo, hi, 0, macc, tacc, nil, nil); err != nil {
				t.Fatal(err)
			}
			wantM, wantT = append(wantM, encode(macc)), append(wantT, encode(tacc))
		}
		for _, workers := range []int{1, 3} {
			var ms []*analysis.MetricsAccumulator
			var ts []*analysis.Table1Accumulator
			for i := range laggards {
				ms = append(ms, analysis.NewMetricsAccumulator(model.Name(), laggards[i]))
				ts = append(ts, analysis.NewTable1Accumulator(model.Name(), alphas[i]))
			}
			if err := FoldReadings(model, geom, policy, lo, hi, workers, true, ms, ts, nil); err != nil {
				t.Fatal(err)
			}
			for i := range laggards {
				if !bytes.Equal(encode(ms[i]), wantM[i]) {
					t.Errorf("%s, %d workers: laggard %g metrics state differs from its own fold", policy, workers, laggards[i])
				}
				if !bytes.Equal(encode(ts[i]), wantT[i]) {
					t.Errorf("%s, %d workers: alpha %g Table 1 state differs from its own fold", policy, workers, alphas[i])
				}
			}
		}
	}
}

// TestFoldWorkers pins the fold's worker-count rule: the most workers,
// up to the request and the fill's tasks, whose extra state — an
// iteration-histogram set per worker past the first plus the open trial
// tables — fits streamStateBudget.
func TestFoldWorkers(t *testing.T) {
	paper, huge := cluster.DefaultConfig(), cluster.HugeConfig()
	hugeTrial := huge
	hugeTrial.Trials = 1
	wideTable := cluster.Config{Trials: 1, Ranks: 2048, Iterations: 1000, Threads: 32} // a 65 MB trial table
	wide := cluster.Config{Trials: 1, Ranks: 1 << 50, Iterations: 1 << 16, Threads: 48}
	cases := []struct {
		name      string
		geom      cluster.Config
		static    bool
		requested int
		workers   int
	}{
		{"paper geometry", paper, true, 8, 8},
		{"paper geometry, every task", paper, true, 200, 80},
		{"paper geometry, rebalanced", paper, false, 64, 10},
		{"HugeConfig", huge, true, 64, 2},
		{"HugeConfig, rebalanced", huge, false, 64, 3},
		{"a one-trial HugeConfig shard", hugeTrial, true, 64, 4},
		{"a one-trial rebalanced HugeConfig shard", hugeTrial, false, 64, 1},
		{"a table over the budget", wideTable, true, 64, 1},
		{"a table overflowing int64", wide, true, 64, 1},
		{"a rebalanced trial over the budget", wideTable, false, 64, 0},
	}
	for _, c := range cases {
		if w := foldWorkers(c.geom, c.static, c.requested); w != c.workers {
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

// fillCounter is a progress sink counting the blocks a fill produced.
type fillCounter struct{ blocks atomic.Int64 }

func (c *fillCounter) ObserveFill(blocks, _ int, _ time.Duration) { c.blocks.Add(int64(blocks)) }
func (c *fillCounter) ObserveLend(int)                            {}

// TestFoldTrialsRefusesRebalancedTableOverBudget pins the refusal at
// the fold's one budget: a 1x2048x1000x32 LeWI cell, whose one trial
// table is 65 MB, is refused before any block is filled.
func TestFoldTrialsRefusesRebalancedTableOverBudget(t *testing.T) {
	geom := cluster.Config{Trials: 1, Ranks: 2048, Iterations: 1000, Threads: 32, Seed: 3}
	model := workload.DefaultMiniFE()
	macc := analysis.NewMetricsAccumulator(model.Name(), analysis.DefaultLaggardThresholdSec)
	tacc := analysis.NewTable1Accumulator(model.Name(), 0.05)
	var progress fillCounter
	err := foldTrials(model, geom, dlb.Spec{Policy: dlb.PolicyLeWI}, 0, 1, 0, macc, tacc, nil, &progress)
	if err == nil || !strings.Contains(err.Error(), "rebalanced trial") {
		t.Fatalf("error %v, want a rebalanced-trial refusal", err)
	}
	if n := progress.blocks.Load(); n != 0 || macc.Blocks() != 0 {
		t.Errorf("refused fold filled %d blocks and folded %d", n, macc.Blocks())
	}
}
