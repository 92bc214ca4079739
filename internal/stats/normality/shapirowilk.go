package normality

import (
	"math"

	"earlybird/internal/sortx"
	"earlybird/internal/stats"
)

// ShapiroWilkTest performs the Shapiro-Wilk W test for normality using
// Royston's 1995 algorithm (AS R94), the same algorithm used by R's
// shapiro.test and SciPy. Valid for 3 <= n <= 5000; for larger samples the
// statistic is still computed but, as in SciPy, the p-value approximation
// degrades gracefully (the paper applies the test to samples up to
// n = 768000 at the application aggregation level, where the verdict —
// reject — is far from the boundary).
func ShapiroWilkTest(xs []float64, alpha float64) (Result, error) {
	n := len(xs)
	if n < 3 {
		return Result{}, ErrSampleTooSmall
	}
	x := make([]float64, n)
	copy(x, xs)
	sortx.Sort(x)
	return ShapiroWilkSorted(x, alpha)
}

// ShapiroWilkSorted is ShapiroWilkTest on an already-sorted sample:
// x must be ascending and is not modified. Callers that sort once and
// fan the sorted data across several tests (see Battery) avoid the
// per-test copy + sort this way; the statistic is bit-identical to
// ShapiroWilkTest on the unsorted sample.
func ShapiroWilkSorted(x []float64, alpha float64) (Result, error) {
	n := len(x)
	if n < 3 {
		return Result{}, ErrSampleTooSmall
	}
	if x[0] == x[n-1] {
		return Result{}, ErrConstantSample
	}

	c := constsFor(n)
	w := swStatistic(x, c.swA)
	p := swPValue(w, n, c)
	return Result{
		Test:         ShapiroWilk,
		Statistic:    w,
		PValue:       p,
		RejectNormal: p < alpha,
		N:            n,
	}, nil
}

// swWeights computes the Royston-approximated coefficients a_i for the
// ordered sample of size n. Only the first half is returned; the second
// half is the antisymmetric reflection a_{n+1-i} = -a_i.
func swWeights(n int) []float64 {
	half := n / 2
	m := make([]float64, half)
	ssq := 0.0
	for i := 0; i < half; i++ {
		// Blom-like scores m_i = Phi^-1((i - 0.375)/(n + 0.25)) for the
		// lower half (i counted from 1). For odd n the middle score is
		// exactly zero and contributes nothing, so it is omitted.
		mi := stats.NormalQuantile((float64(i+1) - 0.375) / (float64(n) + 0.25))
		m[i] = mi
		ssq += 2 * mi * mi // symmetric contribution of upper half
	}
	rsn := 1 / math.Sqrt(float64(n))

	a := make([]float64, half)
	if n == 3 {
		a[0] = -math.Sqrt(0.5)
		return a
	}
	// Royston polynomial corrections to the normalised scores for the two
	// most extreme coefficients (only one for n <= 5). The derivation works
	// with the positive upper-tail weight a_n = c_n + poly(u); the returned
	// lower-half weights are its antisymmetric reflection (negative).
	c1 := []float64{0, 0.221157, -0.147981, -2.071190, 4.434685, -2.706056}
	c2 := []float64{0, 0.042981, -0.293762, -1.752461, 5.682633, -3.582633}
	mN := m[0] // most extreme (negative) lower score, m_1 = -m_n
	an := -mN/math.Sqrt(ssq) + poly(c1, rsn)

	if n > 5 {
		an1 := -m[1]/math.Sqrt(ssq) + poly(c2, rsn)
		phi := (ssq - 2*mN*mN - 2*m[1]*m[1]) / (1 - 2*an*an - 2*an1*an1)
		a[0] = -an
		a[1] = -an1
		for i := 2; i < half; i++ {
			a[i] = m[i] / math.Sqrt(phi)
		}
	} else {
		phi := (ssq - 2*mN*mN) / (1 - 2*an*an)
		a[0] = -an
		for i := 1; i < half; i++ {
			a[i] = m[i] / math.Sqrt(phi)
		}
	}
	return a
}

// poly evaluates c[0] + c[1]*x + c[2]*x^2 + ... .
func poly(c []float64, x float64) float64 {
	sum := 0.0
	for i := len(c) - 1; i >= 0; i-- {
		sum = sum*x + c[i]
	}
	return sum
}

// swStatistic computes W for the sorted sample x from the lower-half
// weights a = swWeights(len(x)).
func swStatistic(x, a []float64) float64 {
	n := len(x)
	num := 0.0
	for i, ai := range a {
		// a_i is negative for the lower half; pair with the reflected
		// upper-half coefficient -a_i.
		num += ai * (x[i] - x[n-1-i])
	}
	mean := stats.Mean(x)
	den := 0.0
	for _, xi := range x {
		den += (xi - mean) * (xi - mean)
	}
	return num * num / den
}

// swPValue converts W to a p-value with Royston's normalising
// transformations; c holds the constants for n.
func swPValue(w float64, n int, c *sizeConsts) float64 {
	if w >= 1 {
		return 1
	}
	nf := float64(n)
	switch {
	case n == 3:
		// Exact small-sample distribution.
		const pi6, stqr = 1.90985931710274, 1.04719755119660 // 6/pi, asin(sqrt(3/4))
		p := pi6 * (math.Asin(math.Sqrt(w)) - stqr)
		if p < 0 {
			return 0
		}
		if p > 1 {
			return 1
		}
		return p
	case n <= 11:
		gamma := -2.273 + 0.459*nf
		wv := -math.Log(gamma - math.Log(1-w))
		mu := 0.5440 - 0.39978*nf + 0.025054*nf*nf - 0.0006714*nf*nf*nf
		sigma := math.Exp(1.3822 - 0.77857*nf + 0.062767*nf*nf - 0.0020322*nf*nf*nf)
		z := (wv - mu) / sigma
		return 1 - stats.NormalCDF(z)
	default:
		return 1 - stats.NormalCDF(swZ(w, c))
	}
}

// initShapiroWilk fills c's Shapiro-Wilk terms for samples of n
// observations: the weights, and Royston's mean and standard deviation
// of ln(1-W), which swZ reads for n > 11.
func (c *sizeConsts) initShapiroWilk(n int) {
	c.swA = swWeights(n)
	g := math.Log(float64(n))
	c.swMu = -1.5861 - 0.31082*g - 0.083751*g*g + 0.0038915*g*g*g
	c.swSigma = math.Exp(-0.4803 - 0.082676*g + 0.0030302*g*g)
}

// swZ is Royston's normalised statistic z = (ln(1-W) - μ_n)/σ_n for
// n > 11, approximately standard normal under normality; the test
// rejects in its upper tail.
func swZ(w float64, c *sizeConsts) float64 {
	return (math.Log(1-w) - c.swMu) / c.swSigma
}
