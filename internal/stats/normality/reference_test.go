package normality

import (
	"math"
	"testing"

	"earlybird/internal/sortx"
	"earlybird/internal/stats"
)

// The reference battery: D'Agostino as it was before the one-pass
// moments — four passes over the sample and a math.Pow call per sample
// and moment — with Shapiro-Wilk and Anderson-Darling on a sorted copy,
// as Battery has always run them.

func refCentralMoment(xs []float64, k int) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := stats.Mean(xs)
	sum := 0.0
	for _, x := range xs {
		sum += math.Pow(x-m, float64(k))
	}
	return sum / float64(len(xs))
}

func refSkewness(xs []float64) float64 {
	m2 := refCentralMoment(xs, 2)
	m3 := refCentralMoment(xs, 3)
	return m3 / math.Pow(m2, 1.5)
}

func refKurtosis(xs []float64) float64 {
	m2 := refCentralMoment(xs, 2)
	m4 := refCentralMoment(xs, 4)
	return m4 / (m2 * m2)
}

func refDAgostinoK2(xs []float64, alpha float64) (Result, error) {
	if len(xs) < 20 {
		return Result{}, ErrSampleTooSmall
	}
	if stats.Min(xs) == stats.Max(xs) {
		return Result{}, ErrConstantSample
	}
	n := float64(len(xs))
	z1 := skewnessZ(refSkewness(xs), n)
	z2 := kurtosisZ(refKurtosis(xs), n)
	k2 := z1*z1 + z2*z2
	p := stats.ChiSquaredSF(k2, 2)
	return Result{Test: DAgostino, Statistic: k2, PValue: p, RejectNormal: p < alpha, N: len(xs)}, nil
}

func refBattery(xs []float64, alpha float64) [3]Result {
	n := len(xs)
	sorted := make([]float64, n)
	copy(sorted, xs)
	sortx.Sort(sorted)
	var out [3]Result
	for _, t := range Tests {
		var (
			r   Result
			err error
		)
		switch t {
		case DAgostino:
			r, err = refDAgostinoK2(xs, alpha)
		case ShapiroWilk:
			r, err = ShapiroWilkSorted(sorted, alpha)
		case AndersonDarling:
			r, err = AndersonDarlingSorted(sorted, alpha)
		}
		if err != nil {
			r = Result{Test: t, RejectNormal: true, N: n}
		}
		out[t] = r
	}
	return out
}

// sameResult compares two results field by field, the floats by their
// IEEE-754 bits: a last-bit change in K² that no pass count can see
// still fails here.
func sameResult(got, want Result) bool {
	return got.Test == want.Test && got.N == want.N && got.RejectNormal == want.RejectNormal &&
		math.Float64bits(got.Statistic) == math.Float64bits(want.Statistic) &&
		math.Float64bits(got.PValue) == math.Float64bits(want.PValue)
}

// TestBatteryBitIdenticalToReference pins every entry point of the
// battery — Battery, BatteryScratch, BatterySorted — to the reference
// over normal, skewed, laggard-contaminated and constant samples around
// the tests' minimum sizes.
func TestBatteryBitIdenticalToReference(t *testing.T) {
	gens := map[string]func(seed uint64, n int) []float64{
		"normal": func(seed uint64, n int) []float64 { return normalSample(seed, n, 26e-3, 0.4e-3) },
		"exp":    func(seed uint64, n int) []float64 { return expSample(seed, n, 1e-3) },
		"laggard": func(seed uint64, n int) []float64 {
			xs := normalSample(seed, n, 26e-3, 0.4e-3)
			xs[int(seed)%n] += 3e-3
			return xs
		},
		"constant": func(seed uint64, n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = 0.025
			}
			return xs
		},
	}
	scratch := make([]float64, 0, 8)
	for name, gen := range gens {
		for _, n := range []int{1, 2, 3, 7, 8, 19, 20, 29, 30, 48, 96, 200} {
			for seed := uint64(1); seed <= 5; seed++ {
				xs := gen(seed, n)
				want := refBattery(xs, DefaultAlpha)
				sorted := append([]float64(nil), xs...)
				sortx.Sort(sorted)
				for entry, got := range map[string][3]Result{
					"Battery":        Battery(xs, DefaultAlpha),
					"BatteryScratch": BatteryScratch(xs, scratch, DefaultAlpha),
					"BatterySorted":  BatterySorted(xs, sorted, DefaultAlpha),
				} {
					for _, test := range Tests {
						if !sameResult(got[test], want[test]) {
							t.Errorf("%s n=%d seed=%d: %s %v = %+v, reference %+v",
								name, n, seed, entry, test, got[test], want[test])
						}
					}
				}
			}
		}
	}
}
