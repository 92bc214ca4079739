package normality

import "sync"

// sizeConsts holds every term of the tests that depends on the sample
// size alone. A streaming study runs the tests on millions of equally
// sized blocks, so each term is computed once per n, by the same
// expressions in the same order as the per-call forms it replaces, and
// never written after insertion: statistics and p-values are
// bit-identical, and concurrent per-worker callers share one copy.
type sizeConsts struct {
	// swA is the lower half of the Shapiro-Wilk weights (swWeights).
	swA []float64
	// swMu and swSigma are Royston's mean and standard deviation of
	// ln(1-W) for n > 11 (swPValue).
	swMu, swSigma float64

	// D'Agostino's skewness transformation (skewnessZ): y = g1·skewScale
	// and Z1 = skewDelta·asinh(y/skewAlpha).
	skewScale, skewDelta, skewAlpha float64
	// The Anscombe-Glynn kurtosis transformation (kurtosisZ): the mean
	// and standard deviation of b2 under normality, and the terms of A
	// it reads, 1-2/A, √(2/(A-4)), 1-2/(9A) and √(2/(9A)).
	kurtMean, kurtSD                        float64
	kurtNum, kurtRoot, kurtShift, kurtScale float64
}

// sizeCache maps n to its *sizeConsts.
var sizeCache sync.Map

// constsFor returns the constants for samples of n ≥ 3 observations;
// the D'Agostino terms are meaningful from n = 20, the test's floor.
func constsFor(n int) *sizeConsts {
	if c, ok := sizeCache.Load(n); ok {
		return c.(*sizeConsts)
	}
	c := new(sizeConsts)
	c.initShapiroWilk(n)
	c.initDAgostino(float64(n))
	stored, _ := sizeCache.LoadOrStore(n, c)
	return stored.(*sizeConsts)
}
