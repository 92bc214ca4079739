package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", name, got, want, tol)
	}
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	approx(t, "mean", Mean(xs), 5, 1e-12)
	approx(t, "variance", Variance(xs), 32.0/7.0, 1e-12)
	approx(t, "stddev", stdDev(xs), math.Sqrt(32.0/7.0), 1e-12)
}

func TestMeanEmpty(t *testing.T) {
	if !math.IsNaN(Mean(nil)) {
		t.Error("mean of empty sample should be NaN")
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Error("variance of singleton should be NaN")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5, -9, 2, 6}
	approx(t, "min", Min(xs), -9, 0)
	approx(t, "max", Max(xs), 6, 0)
}

func TestPercentileInterpolation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	// NumPy linear method: p50 of [1,2,3,4] = 2.5, p25 = 1.75.
	approx(t, "p50", Percentile(xs, 50), 2.5, 1e-12)
	approx(t, "p25", Percentile(xs, 25), 1.75, 1e-12)
	approx(t, "p75", Percentile(xs, 75), 3.25, 1e-12)
	approx(t, "p0", Percentile(xs, 0), 1, 0)
	approx(t, "p100", Percentile(xs, 100), 4, 0)
}

func TestPercentileSingleton(t *testing.T) {
	approx(t, "p37 of singleton", Percentile([]float64{42}, 37), 42, 0)
}

func TestMedianOddEven(t *testing.T) {
	approx(t, "odd median", Median([]float64{5, 1, 3}), 3, 0)
	approx(t, "even median", Median([]float64{4, 1, 3, 2}), 2.5, 1e-12)
}

func TestIQR(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	approx(t, "iqr", IQR(xs), 1.5, 1e-12)
}

func TestSkewnessSymmetric(t *testing.T) {
	xs := []float64{-2, -1, 0, 1, 2}
	approx(t, "skew", skewness(xs), 0, 1e-12)
}

func TestSkewnessSign(t *testing.T) {
	right := []float64{1, 1, 1, 1, 10}
	left := []float64{-10, 1, 1, 1, 1}
	if skewness(right) <= 0 {
		t.Error("right-tailed sample should have positive skewness")
	}
	if skewness(left) >= 0 {
		t.Error("left-tailed sample should have negative skewness")
	}
}

func TestKurtosisUniformVsPeaked(t *testing.T) {
	// Uniform-ish data is platykurtic (b2 < 3); data with outliers is
	// leptokurtic (b2 > 3).
	uniform := make([]float64, 1000)
	for i := range uniform {
		uniform[i] = float64(i)
	}
	if k := kurtosis(uniform); k >= 3 {
		t.Errorf("uniform kurtosis = %v, want < 3", k)
	}
	peaked := make([]float64, 1000)
	peaked[0] = 100
	if k := kurtosis(peaked); k <= 3 {
		t.Errorf("peaked kurtosis = %v, want > 3", k)
	}
}

func TestSortedDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	_ = Sorted(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Sorted mutated its input")
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, p1, p2 float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			// Magnitudes near MaxFloat64 make even exact quantiles
			// ill-conditioned; timing data lives many orders of magnitude
			// below this cap.
			if !math.IsNaN(x) && math.Abs(x) < 1e300 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		a := math.Mod(math.Abs(p1), 100)
		b := math.Mod(math.Abs(p2), 100)
		if a > b {
			a, b = b, a
		}
		return Percentile(xs, a) <= Percentile(xs, b)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanBoundsProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && math.Abs(x) < 1e100 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		m := Mean(xs)
		return m >= Min(xs)-1e-9 && m <= Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// stdDev is the unbiased sample standard deviation, the reference of
// Moments.StdDev.
func stdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// skewness is the sample skewness g1 of SkewnessKurtosis.
func skewness(xs []float64) float64 {
	g1, _ := SkewnessKurtosis(xs)
	return g1
}

// kurtosis is the sample kurtosis b2 of SkewnessKurtosis.
func kurtosis(xs []float64) float64 {
	_, b2 := SkewnessKurtosis(xs)
	return b2
}
