package partcomm

import (
	"math"
	"strings"
	"testing"
	"time"

	"earlybird/internal/network"
	"earlybird/internal/trace"
)

func TestCheckBinTimeout(t *testing.T) {
	for _, ok := range []float64{MinBinTimeoutSec, 1e-3, 3600, math.Inf(1)} {
		if err := CheckBinTimeout(ok); err != nil {
			t.Errorf("%g rejected: %v", ok, err)
		}
	}
	for _, bad := range []float64{0, -1e-3, 1e-9, MinBinTimeoutSec / 2, math.NaN(), math.Inf(-1)} {
		if err := CheckBinTimeout(bad); err == nil || !strings.Contains(err.Error(), "floor") {
			t.Errorf("%g: error %v, want a floor violation", bad, err)
		}
	}
}

// TestBinnedRefusesBinsPastCap pins the CPU-sink fix: a block whose span
// covers more bins than MaxBinsPerBlock — including any span at a 1 ns
// or NaN timeout, which used to step through every empty bin or spin
// forever — returns NaN at once, while a block inside the cap keeps its
// exact finish time.
func TestBinnedRefusesBinsPastCap(t *testing.T) {
	f := network.OmniPath()
	start := time.Now()
	for _, c := range []struct {
		arrivals []float64
		timeout  float64
	}{
		{[]float64{0, 1}, 1e-9},
		{[]float64{0, 1e4}, 1e-3},
		{[]float64{0, 1e-3}, math.NaN()},
		{[]float64{0, 1}, 5e-324},
	} {
		if got := (Binned{TimeoutSec: c.timeout}).FinishTime(c.arrivals, 4096, f); !math.IsNaN(got) {
			t.Errorf("span %g at timeout %g: finish %v, want NaN", c.arrivals[1], c.timeout, got)
		}
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("refusals took %v; the bin loop still runs", el)
	}
	// Just inside the cap the loop runs and lands after the last arrival.
	in := []float64{0, float64(MaxBinsPerBlock-1) * 1e-6}
	if got := (Binned{TimeoutSec: 1e-6}).FinishTime(in, 4096, f); math.IsNaN(got) || got < in[1] {
		t.Fatalf("in-cap block: finish %v", got)
	}
}

func TestCheckBinSpan(t *testing.T) {
	d := trace.NewDataset("span", 1, 1, 2, 2)
	d.Times[0][0][0] = []float64{0.010, 0.020}
	d.Times[0][0][1] = []float64{0.010, 0.020}
	if err := CheckBinSpan(d, MinBinTimeoutSec); err != nil {
		t.Fatalf("10 ms span rejected at the floor: %v", err)
	}
	d.Times[0][0][1][1] = 1e4
	err := CheckBinSpan(d, 1e-3)
	if err == nil || !strings.Contains(err.Error(), "iteration 1") {
		t.Fatalf("1e4 s span at 1 ms: error %v, want one naming iteration 1", err)
	}
}
