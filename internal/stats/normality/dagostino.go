package normality

import (
	"math"

	"earlybird/internal/stats"
)

// initDAgostino fills c's terms of the skewness and kurtosis
// transformations for samples of n observations.
func (c *sizeConsts) initDAgostino(n float64) {
	// D'Agostino (1970).
	c.skewScale = math.Sqrt((n + 1) * (n + 3) / (6 * (n - 2)))
	beta2 := 3 * (n*n + 27*n - 70) * (n + 1) * (n + 3) /
		((n - 2) * (n + 5) * (n + 7) * (n + 9))
	w2 := -1 + math.Sqrt(2*(beta2-1))
	c.skewDelta = 1 / math.Sqrt(math.Log(math.Sqrt(w2)))
	c.skewAlpha = math.Sqrt(2 / (w2 - 1))

	// Anscombe and Glynn (1983).
	c.kurtMean = 3 * (n - 1) / (n + 1)
	varB2 := 24 * n * (n - 2) * (n - 3) / ((n + 1) * (n + 1) * (n + 3) * (n + 5))
	c.kurtSD = math.Sqrt(varB2)
	sqrtBeta1 := 6 * (n*n - 5*n + 2) / ((n + 7) * (n + 9)) *
		math.Sqrt(6*(n+3)*(n+5)/(n*(n-2)*(n-3)))
	a := 6 + 8/sqrtBeta1*(2/sqrtBeta1+math.Sqrt(1+4/(sqrtBeta1*sqrtBeta1)))
	c.kurtNum = 1 - 2/a
	c.kurtRoot = math.Sqrt(2 / (a - 4))
	c.kurtShift = 1 - 2/(9*a)
	c.kurtScale = math.Sqrt(2 / (9 * a))
}

// skewnessZ transforms the sample skewness g1 into an approximately
// standard normal statistic using D'Agostino's (1970) transformation.
func (c *sizeConsts) skewnessZ(g1 float64) float64 {
	y := g1 * c.skewScale
	if y == 0 {
		return 0
	}
	return c.skewDelta * math.Log(y/c.skewAlpha+math.Sqrt((y/c.skewAlpha)*(y/c.skewAlpha)+1))
}

// kurtosisZ transforms the sample kurtosis b2 into an approximately
// standard normal statistic using the Anscombe-Glynn (1983)
// transformation.
func (c *sizeConsts) kurtosisZ(b2 float64) float64 {
	x := (b2 - c.kurtMean) / c.kurtSD
	den := 1 + x*c.kurtRoot
	// den can be non-positive for extreme platykurtic samples; the cube
	// root of a negative ratio is handled by Cbrt.
	term := math.Cbrt(c.kurtNum / den)
	return (c.kurtShift - term) / c.kurtScale
}

// k2 returns K² = Z1² + Z2² for a sample of the constants' size.
func (c *sizeConsts) k2(xs []float64) float64 {
	g1, b2 := stats.SkewnessKurtosis(xs)
	z1 := c.skewnessZ(g1)
	z2 := c.kurtosisZ(b2)
	return z1*z1 + z2*z2
}

// thresholdK2 is K² for the threshold verdict, from the central moments
// m2, m3, m4 of a sample of the constants' size. It is k2's expression
// but for g1's denominator, m2·√m2 where stats.SkewnessKurtosis takes
// math.Pow(m2, 1.5), which may move K² by a few ulp (see
// thresholdMargin). Where m2·√m2 is outside [2^-1000, 2^1000], so that
// it or Pow may overflow or lose bits to underflow, thresholdK2 is NaN
// and the reference decides.
func (c *sizeConsts) thresholdK2(m2, m3, m4 float64) float64 {
	p := m2 * math.Sqrt(m2)
	if !(p >= 0x1p-1000 && p <= 0x1p1000) {
		return math.NaN()
	}
	z1 := c.skewnessZ(m3 / p)
	z2 := c.kurtosisZ(m4 / (m2 * m2))
	return z1*z1 + z2*z2
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
	k2 := constsFor(len(xs)).k2(xs)
	p, reject := chiSquared2Test(k2, alpha)
	return Result{
		Test:         DAgostino,
		Statistic:    k2,
		PValue:       p,
		RejectNormal: reject,
		N:            len(xs),
	}, nil
}

// chiSquared2Test returns the χ²(2) p-value of a statistic and whether
// it rejects normality at alpha. A NaN or +Inf statistic, which moments
// that underflowed or overflowed produce, is a rejection.
func chiSquared2Test(stat, alpha float64) (p float64, reject bool) {
	p = stats.ChiSquaredSF(stat, 2)
	return p, !(stat < math.Inf(1) && p >= alpha)
}
