package normality

import (
	"math"

	"earlybird/internal/sortx"
	"earlybird/internal/stats"
)

// adCriticalSig and adCriticalVal are Stephens' (1974) significance levels
// and critical values for the Anderson-Darling statistic when testing
// normality with both mean and variance estimated from the sample
// ("case 3"), applied to the small-sample-adjusted statistic A²*.
var (
	adCriticalSig = []float64{0.15, 0.10, 0.05, 0.025, 0.01}
	adCriticalVal = []float64{0.576, 0.656, 0.787, 0.918, 1.092}
)

// AndersonDarlingTest performs the Anderson-Darling test of composite
// normality. The statistic is adjusted for sample size with
// A²* = A² (1 + 0.75/n + 2.25/n²) and compared against Stephens' case-3
// critical values. The paper reports results for a significance level of
// 5%; any other alpha takes the critical value of the tabulated level
// closest to it, above or below (α = 0.09 takes 10%'s 0.656).
func AndersonDarlingTest(xs []float64, alpha float64) (Result, error) {
	n := len(xs)
	if n < 8 {
		// Below n=8 the case-3 adjustment is unreliable (scipy uses the
		// same floor for its normality table).
		return Result{}, ErrSampleTooSmall
	}
	x := make([]float64, n)
	copy(x, xs)
	sortx.Sort(x)
	return AndersonDarlingSorted(x, alpha)
}

// AndersonDarlingSorted is AndersonDarlingTest on an already-sorted
// sample: x must be ascending and is not modified. The statistic is
// bit-identical to AndersonDarlingTest on the unsorted sample.
func AndersonDarlingSorted(x []float64, alpha float64) (Result, error) {
	n := len(x)
	if n < 8 {
		return Result{}, ErrSampleTooSmall
	}
	if x[0] == x[n-1] {
		return Result{}, ErrConstantSample
	}
	mean := stats.Mean(x)
	sd := math.Sqrt(stats.VarianceAbout(x, mean))

	// Standardise each value once; the sum reads z from both ends. A
	// block-sized sample fits the stack buffer.
	var zbuf [128]float64
	z := zbuf[:0]
	if n > len(zbuf) {
		z = make([]float64, 0, n)
	}
	for _, xi := range x {
		z = append(z, (xi-mean)/sd)
	}
	nf := float64(n)
	sum := 0.0
	for i := 0; i < n; i++ {
		// ln Phi(z_i) + ln(1 - Phi(z_{n+1-i})); compute both in log space
		// via Erfc to stay finite deep in the tails.
		lcdf := logNormalCDF(z[i])
		lsf := logNormalCDF(-z[n-1-i]) // 1 - Phi(z) = Phi(-z)
		sum += (2*float64(i+1) - 1) * (lcdf + lsf)
	}
	a2 := -nf - sum/nf
	a2star := a2 * (1 + 0.75/nf + 2.25/(nf*nf))

	crit := criticalValueFor(alpha)
	return Result{
		Test:         AndersonDarling,
		Statistic:    a2star,
		PValue:       adPValue(a2star),
		RejectNormal: a2star > crit,
		N:            n,
	}, nil
}

// criticalValueFor returns the Stephens case-3 critical value for the
// tabulated significance level closest to alpha (exact for the paper's 5%).
func criticalValueFor(alpha float64) float64 {
	best := 0
	bestDist := math.Abs(adCriticalSig[0] - alpha)
	for i, sig := range adCriticalSig {
		if d := math.Abs(sig - alpha); d < bestDist {
			best, bestDist = i, d
		}
	}
	return adCriticalVal[best]
}

// adPValue approximates the p-value of the adjusted statistic using the
// piecewise formulas of D'Agostino & Stephens (1986), Table 4.9.
func adPValue(a2 float64) float64 {
	switch {
	case a2 >= 0.6:
		return math.Exp(1.2937 - 5.709*a2 + 0.0186*a2*a2)
	case a2 >= 0.34:
		return math.Exp(0.9177 - 4.279*a2 - 1.38*a2*a2)
	case a2 >= 0.2:
		return 1 - math.Exp(-8.318+42.796*a2-59.938*a2*a2)
	default:
		return 1 - math.Exp(-13.436+101.14*a2-223.73*a2*a2)
	}
}

// logNormalCDF returns ln Phi(x) computed stably for large negative x.
func logNormalCDF(x float64) float64 {
	// Phi(x) = erfc(-x/sqrt2)/2. Erfc underflows around x < -38; switch
	// to the asymptotic expansion of the tail there.
	if x > -37 {
		return math.Log(0.5 * math.Erfc(-x/math.Sqrt2))
	}
	// ln Phi(x) ~ -x²/2 - ln(-x) - ln(2π)/2 for x -> -inf.
	return -x*x/2 - math.Log(-x) - 0.5*math.Log(2*math.Pi)
}
