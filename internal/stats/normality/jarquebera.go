package normality

import (
	"earlybird/internal/stats"
)

// JarqueBeraTest performs the Jarque-Bera normality test:
// JB = n/6 (g1² + (b2-3)²/4), asymptotically chi-squared with 2 degrees
// of freedom under normality.
//
// It is not one of the paper's three tests (Tests) but is provided as an
// extension: it is the cheapest of the moment-based tests and is used by
// the large-sample sanity sweeps, where the chi-squared approximation is
// excellent.
func JarqueBeraTest(xs []float64, alpha float64) (Result, error) {
	n := len(xs)
	// The chi-squared approximation is poor below a few hundred samples;
	// require a moderate floor and leave small-sample work to the three
	// primary tests.
	if n < 30 {
		return Result{}, ErrSampleTooSmall
	}
	if stats.Min(xs) == stats.Max(xs) {
		return Result{}, ErrConstantSample
	}
	g1, b2 := stats.SkewnessKurtosis(xs)
	jb := float64(n) / 6 * (g1*g1 + (b2-3)*(b2-3)/4)
	p, reject := chiSquared2Test(jb, alpha)
	return Result{
		Test:         Test(numTests), // outside the primary battery
		Statistic:    jb,
		PValue:       p,
		RejectNormal: reject,
		N:            n,
	}, nil
}
