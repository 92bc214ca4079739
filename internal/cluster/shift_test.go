package cluster

import (
	"math"
	"reflect"
	"testing"

	"earlybird/internal/workload"
)

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
