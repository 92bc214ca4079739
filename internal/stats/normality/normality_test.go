package normality

import (
	"fmt"
	"math"
	"testing"

	"earlybird/internal/rng"
	"earlybird/internal/sortx"
)

func normalSample(seed uint64, n int, mu, sigma float64) []float64 {
	s := rng.New(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = s.Normal(mu, sigma)
	}
	return xs
}

func expSample(seed uint64, n int, mean float64) []float64 {
	s := rng.New(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = s.Exp(mean)
	}
	return xs
}

// rejectionRate runs the test on trials independent samples drawn by gen
// and returns the fraction rejected at 5%.
func rejectionRate(t *testing.T, test Test, trials, n int, gen func(seed uint64, n int) []float64) float64 {
	t.Helper()
	rejected := 0
	for i := 0; i < trials; i++ {
		r, err := run(test, gen(uint64(i)+1, n), DefaultAlpha)
		if err != nil {
			t.Fatalf("%v on trial %d: %v", test, i, err)
		}
		if r.RejectNormal {
			rejected++
		}
	}
	return float64(rejected) / float64(trials)
}

// Under the null hypothesis, each test should reject close to alpha = 5%
// of truly normal samples. This is the property that drives the paper's
// Table 1 for MiniQMC (95-96% pass rates).
func TestSizeUnderNull(t *testing.T) {
	gen := func(seed uint64, n int) []float64 { return normalSample(seed, n, 26.3e-3, 0.1e-3) }
	for _, test := range Tests {
		rate := rejectionRate(t, test, 400, 48, gen)
		if rate > 0.10 {
			t.Errorf("%v: rejection rate %.3f under null, want <= 0.10", test, rate)
		}
		if rate < 0.005 {
			t.Errorf("%v: rejection rate %.3f under null suspiciously low", test, rate)
		}
	}
}

// Exponential data at n=48 should be rejected nearly always (power check);
// this is what makes the skewed MiniFE process iterations fail in Table 1.
func TestPowerAgainstExponential(t *testing.T) {
	gen := func(seed uint64, n int) []float64 { return expSample(seed, n, 1) }
	for _, test := range Tests {
		rate := rejectionRate(t, test, 200, 48, gen)
		if rate < 0.95 {
			t.Errorf("%v: rejection rate %.3f against exp(1), want >= 0.95", test, rate)
		}
	}
}

// A single large outlier among 48 normal points (the paper's laggard
// pattern, Figures 5b/7c) should trigger rejection by all three tests.
func TestPowerAgainstLaggardContamination(t *testing.T) {
	gen := func(seed uint64, n int) []float64 {
		xs := normalSample(seed, n, 24.74e-3, 0.111e-3)
		xs[n-1] = 24.74e-3 + 4e-3 // laggard 4 ms after the pack
		return xs
	}
	for _, test := range Tests {
		rate := rejectionRate(t, test, 100, 48, gen)
		if rate < 0.99 {
			t.Errorf("%v: rejection rate %.3f with laggard, want ~1", test, rate)
		}
	}
}

func TestShapiroWilkKnownVector(t *testing.T) {
	// Classic example (Shapiro & Wilk 1965 men's-weights data). The exact
	// 1965 table coefficients give W = 0.79999; Royston's AS R94
	// approximation used here (and by R/SciPy) gives W ~ 0.7888 with
	// p ~ 0.0089, still a clear rejection.
	x := []float64{148, 154, 158, 160, 161, 162, 166, 170, 182, 195, 236}
	r, err := shapiroWilkTest(x, DefaultAlpha)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Statistic-0.7932) > 0.012 {
		t.Errorf("W = %v, want ~0.789-0.800", r.Statistic)
	}
	if r.PValue < 0.004 || r.PValue > 0.02 {
		t.Errorf("p = %v, want ~0.0089", r.PValue)
	}
	if !r.RejectNormal {
		t.Error("should reject at 5%")
	}
}

func TestShapiroWilkNearNormalVector(t *testing.T) {
	// Symmetric, near-normal ordered sample should not be rejected.
	x := []float64{-2.1, -1.3, -0.9, -0.6, -0.3, -0.1, 0.1, 0.3, 0.6, 0.9, 1.3, 2.1}
	r, err := shapiroWilkTest(x, DefaultAlpha)
	if err != nil {
		t.Fatal(err)
	}
	if r.RejectNormal {
		t.Errorf("rejected symmetric sample, W=%v p=%v", r.Statistic, r.PValue)
	}
	if r.Statistic < 0.9 || r.Statistic > 1 {
		t.Errorf("W = %v out of plausible range", r.Statistic)
	}
}

func TestShapiroWilkWBounds(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		r, err := shapiroWilkTest(normalSample(seed, 48, 0, 1), DefaultAlpha)
		if err != nil {
			t.Fatal(err)
		}
		if r.Statistic <= 0 || r.Statistic > 1 {
			t.Fatalf("W = %v outside (0, 1]", r.Statistic)
		}
	}
}

func TestShapiroWilkSmallN(t *testing.T) {
	// n = 3 exact branch.
	r, err := shapiroWilkTest([]float64{1, 2, 10}, DefaultAlpha)
	if err != nil {
		t.Fatal(err)
	}
	if r.Statistic <= 0 || r.Statistic > 1 {
		t.Errorf("W = %v outside (0,1]", r.Statistic)
	}
	// n = 5 branch (single extreme coefficient).
	r5, err := shapiroWilkTest([]float64{1, 2, 3, 4, 100}, DefaultAlpha)
	if err != nil {
		t.Fatal(err)
	}
	if !r5.RejectNormal {
		t.Errorf("n=5 with huge outlier should reject, W=%v p=%v", r5.Statistic, r5.PValue)
	}
}

func TestDAgostinoKnownBehavior(t *testing.T) {
	// Strongly skewed data: K² should be large, p tiny.
	x := expSample(7, 100, 1)
	r, err := DAgostinoK2(x, DefaultAlpha)
	if err != nil {
		t.Fatal(err)
	}
	if r.Statistic < 10 {
		t.Errorf("K² = %v for exp data, want large", r.Statistic)
	}
	if r.PValue > 0.01 {
		t.Errorf("p = %v for exp data, want tiny", r.PValue)
	}
}

func TestDAgostinoSymmetricHeavyTails(t *testing.T) {
	// Symmetric but heavy-tailed (Laplace-like): skewness Z small, kurtosis
	// Z large; the omnibus test should still reject.
	s := rng.New(11)
	xs := make([]float64, 500)
	for i := range xs {
		v := s.Exp(1)
		if s.Bernoulli(0.5) {
			v = -v
		}
		xs[i] = v
	}
	r, err := DAgostinoK2(xs, DefaultAlpha)
	if err != nil {
		t.Fatal(err)
	}
	if !r.RejectNormal {
		t.Errorf("failed to reject Laplace sample: K²=%v p=%v", r.Statistic, r.PValue)
	}
}

func TestAndersonDarlingStatisticRange(t *testing.T) {
	r, err := andersonDarlingTest(normalSample(3, 200, 5, 2), DefaultAlpha)
	if err != nil {
		t.Fatal(err)
	}
	if r.Statistic < 0 {
		t.Errorf("A²* = %v negative", r.Statistic)
	}
	if r.Statistic > 2 {
		t.Errorf("A²* = %v too large for normal data", r.Statistic)
	}
}

func TestAndersonDarlingCriticalValues(t *testing.T) {
	if v := criticalValueFor(0.05); v != 0.787 {
		t.Errorf("5%% critical value = %v, want 0.787", v)
	}
	if v := criticalValueFor(0.01); v != 1.092 {
		t.Errorf("1%% critical value = %v, want 1.092", v)
	}
	if v := criticalValueFor(0.15); v != 0.576 {
		t.Errorf("15%% critical value = %v, want 0.576", v)
	}
}

// TestAndersonDarlingAlphaSnapping pins how an untabulated alpha picks
// its critical value: the closest tabulated level, so α = 0.09 takes
// 10%'s 0.656 rather than 5%'s 0.787, and α = 0.03 takes 2.5%'s 0.918.
// A sample with A²* between each pair of critical values shows the
// verdict follows.
func TestAndersonDarlingAlphaSnapping(t *testing.T) {
	for _, c := range []struct {
		alpha, crit, a2 float64
		passed          bool
	}{
		{0.09, 0.656, 0.72, false},
		{0.03, 0.918, 0.85, true},
	} {
		if v := criticalValueFor(c.alpha); v != c.crit {
			t.Errorf("alpha %v: critical value %v, want %v", c.alpha, v, c.crit)
		}
		xs := nearCriticalSample(t, 48, c.a2, 1e-3)
		r, err := andersonDarlingTest(xs, c.alpha)
		if err != nil {
			t.Fatal(err)
		}
		verdict := NewVerdicts(c.alpha).Passed(xs, xs)[AndersonDarling]
		if r.Passed() != c.passed || verdict != c.passed {
			t.Errorf("alpha %v: A²* %v passed=%v (verdict %v), want %v",
				c.alpha, r.Statistic, r.Passed(), verdict, c.passed)
		}
	}
}

// TestChiSquaredTestsRejectNonFinite: a sample whose moments underflow
// or overflow gives D'Agostino a NaN statistic, and
// that, like a K² of +Inf, is a rejection, not a pass.
func TestChiSquaredTestsRejectNonFinite(t *testing.T) {
	scaled := func(scale float64) []float64 {
		xs := normalSample(3, 48, 0, scale)
		xs[5] = 20 * scale
		return xs
	}
	for _, scale := range []float64{1e-100, 1e100} {
		xs := scaled(scale)
		r, err := DAgostinoK2(xs, DefaultAlpha)
		if err != nil {
			t.Fatalf("scale %v: %v", scale, err)
		}
		if !math.IsNaN(r.Statistic) || r.Passed() {
			t.Errorf("scale %v: %+v, want a NaN statistic that rejects", scale, r)
		}
	}
	for _, stat := range []float64{math.Inf(1), math.NaN()} {
		if _, reject := chiSquared2Test(stat, DefaultAlpha); !reject {
			t.Errorf("statistic %v passed", stat)
		}
	}
	if p, reject := chiSquared2Test(1, DefaultAlpha); reject || !(p > DefaultAlpha) {
		t.Errorf("statistic 1: p %v reject %v, want a pass", p, reject)
	}
}

func TestErrorsOnDegenerateSamples(t *testing.T) {
	constant := make([]float64, 48)
	for i := range constant {
		constant[i] = 3.14
	}
	for _, test := range Tests {
		if _, err := run(test, constant, DefaultAlpha); err == nil {
			t.Errorf("%v: expected error on constant sample", test)
		}
		if _, err := run(test, []float64{1, 2}, DefaultAlpha); err == nil {
			t.Errorf("%v: expected error on tiny sample", test)
		}
	}
}

func TestBatteryDegenerateMarksRejected(t *testing.T) {
	out := Battery([]float64{1, 2}, DefaultAlpha)
	for _, r := range out {
		if r.Passed() {
			t.Errorf("%v: degenerate sample should count as rejected", r.Test)
		}
	}
}

func TestBatteryNormalSample(t *testing.T) {
	out := Battery(normalSample(12345, 48, 60.91e-3, 6.71e-3), DefaultAlpha)
	for _, r := range out {
		if r.N != 48 {
			t.Errorf("%v: N = %d", r.Test, r.N)
		}
		if r.PValue < 0 || r.PValue > 1 {
			t.Errorf("%v: p = %v outside [0,1]", r.Test, r.PValue)
		}
	}
}

func TestTestString(t *testing.T) {
	if DAgostino.String() != "D'Agostino" ||
		ShapiroWilk.String() != "Shapiro-Wilk" ||
		AndersonDarling.String() != "Anderson-Darling" {
		t.Error("unexpected test names")
	}
	if Test(99).String() == "" {
		t.Error("unknown test should still render")
	}
}

func TestLargeSampleRejectsMixture(t *testing.T) {
	// Application-level aggregation in the paper mixes many process
	// iterations with different medians; such mixtures must be rejected
	// even when each component is normal (Section 4.1).
	s := rng.New(99)
	xs := make([]float64, 20000)
	for i := range xs {
		mu := 26.3e-3
		if i%2 == 0 {
			mu = 25.1e-3
		}
		xs[i] = s.Normal(mu, 0.1e-3)
	}
	for _, test := range Tests {
		r, err := run(test, xs, DefaultAlpha)
		if err != nil {
			t.Fatalf("%v: %v", test, err)
		}
		if !r.RejectNormal {
			t.Errorf("%v: failed to reject bimodal mixture", test)
		}
	}
}

// run dispatches to the requested test at significance alpha.
func run(t Test, xs []float64, alpha float64) (Result, error) {
	switch t {
	case DAgostino:
		return DAgostinoK2(xs, alpha)
	case ShapiroWilk:
		return shapiroWilkTest(xs, alpha)
	case AndersonDarling:
		return andersonDarlingTest(xs, alpha)
	default:
		return Result{}, fmt.Errorf("normality: unknown test %d", int(t))
	}
}

// andersonDarlingTest is AndersonDarlingSorted on a sorted copy of xs.
func andersonDarlingTest(xs []float64, alpha float64) (Result, error) {
	x := append([]float64(nil), xs...)
	sortx.Sort(x)
	return AndersonDarlingSorted(x, alpha)
}

// shapiroWilkTest is ShapiroWilkSorted on a sorted copy of xs.
func shapiroWilkTest(xs []float64, alpha float64) (Result, error) {
	x := append([]float64(nil), xs...)
	sortx.Sort(x)
	return ShapiroWilkSorted(x, alpha)
}
