package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145707},
		{1.959963984540054, 0.975},
		{-2.5758293035489004, 0.005},
	}
	for _, c := range cases {
		approx(t, "Phi", NormalCDF(c.x), c.want, 1e-12)
	}
}

func TestNormalPDFKnownValues(t *testing.T) {
	approx(t, "phi(0)", NormalPDF(0), 0.3989422804014327, 1e-14)
	approx(t, "phi(1)", NormalPDF(1), 0.24197072451914337, 1e-14)
}

func TestNormalQuantileKnownValues(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959963984540054},
		{0.025, -1.959963984540054},
		{0.8413447460685429, 1},
		{0.99, 2.3263478740408408},
		{1e-10, -6.361340902404056},
	}
	for _, c := range cases {
		approx(t, "quantile", NormalQuantile(c.p), c.want, 1e-9)
	}
}

func TestNormalQuantileEdgeCases(t *testing.T) {
	if !math.IsInf(NormalQuantile(0), -1) {
		t.Error("quantile(0) should be -Inf")
	}
	if !math.IsInf(NormalQuantile(1), 1) {
		t.Error("quantile(1) should be +Inf")
	}
	if !math.IsNaN(NormalQuantile(-0.1)) || !math.IsNaN(NormalQuantile(1.1)) {
		t.Error("quantile outside [0,1] should be NaN")
	}
}

func TestNormalQuantileRoundTripProperty(t *testing.T) {
	f := func(raw float64) bool {
		p := math.Mod(math.Abs(raw), 1)
		if p < 1e-12 || p > 1-1e-12 {
			return true
		}
		x := NormalQuantile(p)
		return math.Abs(NormalCDF(x)-p) < 1e-10
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChiSquaredSFKnownValues(t *testing.T) {
	// For k=2 the survival function is exp(-x/2).
	for _, x := range []float64{0.5, 1, 2, 5, 10} {
		approx(t, "chi2 sf k=2", ChiSquaredSF(x, 2), math.Exp(-x/2), 1e-10)
	}
	// chi2(1): P(X >= 3.841458820694124) = 0.05.
	approx(t, "chi2 sf k=1", ChiSquaredSF(3.841458820694124, 1), 0.05, 1e-8)
	// x <= 0 has SF 1.
	approx(t, "chi2 sf x=0", ChiSquaredSF(0, 3), 1, 0)
}

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram([]float64{0.1, 0.12, 0.19, 0.25, 0.31}, 0.1)
	if h.Total != 5 {
		t.Errorf("total = %d", h.Total)
	}
	// Bins: [0.1,0.2): 3 samples; [0.2,0.3): 1; [0.3,0.4): 1.
	if h.Counts[0] != 3 || h.Counts[1] != 1 || h.Counts[2] != 1 {
		t.Errorf("counts = %v", h.Counts)
	}
	approx(t, "peak", h.Peak(), 0.15, 1e-9)
}

func TestHistogramAddExtends(t *testing.T) {
	h := NewHistogram([]float64{1}, 1)
	h.Add(5.5)
	if h.Total != 2 {
		t.Errorf("total = %d", h.Total)
	}
	if h.Counts[4] != 1 {
		t.Errorf("counts = %v", h.Counts)
	}
}

func TestHistogramConservesTotalProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && math.Abs(x) < 1e9 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		h := NewHistogram(xs, 0.5)
		sum := 0
		for _, c := range h.Counts {
			sum += c
		}
		return sum == len(xs) && h.Total == len(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramRenderAndCSV(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.0012, 0.002}, 0.0005)
	out := h.Render(20, 1e-3, "ms")
	if out == "" || out == "(empty histogram)\n" {
		t.Error("render produced no output")
	}
	csv := h.CSV(1e-3)
	if csv == "" {
		t.Error("csv produced no output")
	}
	empty := &Histogram{Width: 1}
	if got := empty.Render(10, 1, "s"); got != "(empty histogram)\n" {
		t.Errorf("empty render = %q", got)
	}
}
