package normality

import (
	"math"

	"earlybird/internal/stats"
)

// skewnessZ transforms the sample skewness g1 of n observations into an
// approximately standard normal statistic using D'Agostino's (1970)
// transformation.
func skewnessZ(g1, n float64) float64 {
	y := g1 * math.Sqrt((n+1)*(n+3)/(6*(n-2)))
	beta2 := 3 * (n*n + 27*n - 70) * (n + 1) * (n + 3) /
		((n - 2) * (n + 5) * (n + 7) * (n + 9))
	w2 := -1 + math.Sqrt(2*(beta2-1))
	delta := 1 / math.Sqrt(math.Log(math.Sqrt(w2)))
	alpha := math.Sqrt(2 / (w2 - 1))
	if y == 0 {
		return 0
	}
	return delta * math.Log(y/alpha+math.Sqrt((y/alpha)*(y/alpha)+1))
}

// kurtosisZ transforms the sample kurtosis b2 of n observations into an
// approximately standard normal statistic using the Anscombe-Glynn (1983)
// transformation.
func kurtosisZ(b2, n float64) float64 {
	meanB2 := 3 * (n - 1) / (n + 1)
	varB2 := 24 * n * (n - 2) * (n - 3) / ((n + 1) * (n + 1) * (n + 3) * (n + 5))
	x := (b2 - meanB2) / math.Sqrt(varB2)
	sqrtBeta1 := 6 * (n*n - 5*n + 2) / ((n + 7) * (n + 9)) *
		math.Sqrt(6*(n+3)*(n+5)/(n*(n-2)*(n-3)))
	a := 6 + 8/sqrtBeta1*(2/sqrtBeta1+math.Sqrt(1+4/(sqrtBeta1*sqrtBeta1)))
	num := 1 - 2/a
	den := 1 + x*math.Sqrt(2/(a-4))
	// den can be non-positive for extreme platykurtic samples; the cube
	// root of a negative ratio is handled by Cbrt.
	term := math.Cbrt(num / den)
	return ((1 - 2/(9*a)) - term) / math.Sqrt(2/(9*a))
}

// DAgostinoK2 performs D'Agostino's K² omnibus normality test, which
// combines the skewness and kurtosis z-statistics into K² = Z1² + Z2²,
// distributed approximately chi-squared with 2 degrees of freedom under
// the null hypothesis of normality.
//
// The test requires n >= 20 for the kurtosis approximation to hold
// (D'Agostino, Belanger & D'Agostino 1990); the paper's smallest sets
// are n = 48.
func DAgostinoK2(xs []float64, alpha float64) (Result, error) {
	if len(xs) < 20 {
		return Result{}, ErrSampleTooSmall
	}
	if stats.Min(xs) == stats.Max(xs) {
		return Result{}, ErrConstantSample
	}
	n := float64(len(xs))
	g1, b2 := stats.SkewnessKurtosis(xs)
	z1 := skewnessZ(g1, n)
	z2 := kurtosisZ(b2, n)
	k2 := z1*z1 + z2*z2
	p := stats.ChiSquaredSF(k2, 2)
	return Result{
		Test:         DAgostino,
		Statistic:    k2,
		PValue:       p,
		RejectNormal: p < alpha,
		N:            len(xs),
	}, nil
}
