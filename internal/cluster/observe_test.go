package cluster

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"earlybird/internal/dlb"
	"earlybird/internal/workload"
)

// blockLog records every observed block: its coordinates and samples.
type blockLog struct {
	coords [][3]int
	times  []uint64
}

func (l *blockLog) ObserveBlock(trial, rank, iter int, xs []float64) {
	l.coords = append(l.coords, [3]int{trial, rank, iter})
	for _, x := range xs {
		l.times = append(l.times, math.Float64bits(x))
	}
}

// TestObserveTrialsMatchesCursor pins that ObserveTrials hands its
// observer exactly the blocks, and in exactly the order, that a cursor
// over the materialised study yields for the same trial range, at every
// bound: one run of all trials, runs of two trials, and (static only) a
// trial over the bound streamed through one fill worker.
func TestObserveTrialsMatchesCursor(t *testing.T) {
	cfg := Config{Trials: 5, Ranks: 3, Iterations: 4, Threads: 48, Seed: 11}
	perTrial := cfg.Ranks * cfg.Iterations * cfg.Threads
	lewi := dlb.Spec{Policy: dlb.PolicyLeWI}
	for _, policy := range []dlb.Spec{{}, lewi} {
		col, err := RunColumnar(workload.DefaultMiniMD(), cfg, policy, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		const lo, hi = 1, 4
		var want blockLog
		for cur := col.Cursor(); cur.Next(); {
			if b := cur.Block(); b.Trial >= lo && b.Trial < hi {
				want.ObserveBlock(b.Trial, b.Rank, b.Iter, b.Times)
			}
		}
		bounds := []int{cfg.Samples(), 2*perTrial + 1}
		if policy.IsStatic() {
			bounds = append(bounds, 1)
		}
		for _, bound := range bounds {
			var got blockLog
			if err := ObserveTrials(workload.DefaultMiniMD(), cfg, lo, hi, policy, 2, bound, &got, nil); err != nil {
				t.Fatalf("%s bound %d: %v", policy, bound, err)
			}
			if !reflect.DeepEqual(got.coords, want.coords) || !reflect.DeepEqual(got.times, want.times) {
				t.Errorf("%s bound %d: blocks differ from the cursor's", policy, bound)
			}
		}
	}
}

// TestObserveTrialsBoundsMemory runs a static trial of 3 MB of samples
// under a one-sample bound and checks the fill never held it, then
// checks a rebalanced trial over the bound is refused.
func TestObserveTrialsBoundsMemory(t *testing.T) {
	cfg := Config{Trials: 1, Ranks: 1024, Iterations: 8, Threads: 48, Seed: 5}
	tensor := uint64(cfg.Samples()) * 8
	blocks := 0
	count := observerFunc(func(int, int, int, []float64) { blocks++ })

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := ObserveTrials(workload.DefaultMiniFE(), cfg, 0, 1, dlb.Spec{}, 0, 1, count, nil); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if blocks != cfg.Ranks*cfg.Iterations {
		t.Fatalf("observed %d blocks, want %d", blocks, cfg.Ranks*cfg.Iterations)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > tensor/8 {
		t.Errorf("streaming a trial allocated %d bytes; the trial's tensor is %d", alloc, tensor)
	}

	err := ObserveTrials(workload.DefaultMiniFE(), cfg, 0, 1, dlb.Spec{Policy: dlb.PolicyLeWI}, 0, 1, count, nil)
	if err == nil || !strings.Contains(err.Error(), "rebalanced trial") {
		t.Fatalf("rebalanced trial over the bound: err = %v", err)
	}
	if err := ObserveTrials(workload.DefaultMiniFE(), cfg, 0, 2, dlb.Spec{}, 0, 1, count, nil); err == nil {
		t.Fatal("trial range past the geometry accepted")
	}
}

// TestShiftTrials pins that a shifted model generates the original
// model's later trials bit for bit, under a name of its own.
func TestShiftTrials(t *testing.T) {
	base := workload.DefaultMiniQMC()
	if ShiftTrials(base, 0) != workload.Model(base) {
		t.Fatal("a zero shift must return the model itself")
	}
	shifted := ShiftTrials(base, 2)
	if shifted.Name() != "miniqmc#t2" {
		t.Fatalf("shifted name = %q", shifted.Name())
	}
	full := MustRun(base, Config{Trials: 3, Ranks: 2, Iterations: 3, Threads: 48, Seed: 4})
	tail := MustRun(shifted, Config{Trials: 1, Ranks: 2, Iterations: 3, Threads: 48, Seed: 4})
	if !reflect.DeepEqual(tail.Times[0], full.Times[2]) {
		t.Fatal("shifted trial 0 differs from the original trial 2")
	}
}

// TestSamplesSaturates pins that a geometry whose sample count
// overflows an int reports math.MaxInt, so no bound check can be passed
// by wrapping around.
func TestSamplesSaturates(t *testing.T) {
	huge := Config{Trials: 1 << 20, Ranks: 1 << 20, Iterations: 1 << 20, Threads: 1 << 10}
	if got := huge.Samples(); got != math.MaxInt {
		t.Fatalf("overflowing geometry: Samples() = %d, want MaxInt", got)
	}
	if got := DefaultConfig().Samples(); got != 768000 {
		t.Fatalf("paper geometry: Samples() = %d, want 768000", got)
	}
}
