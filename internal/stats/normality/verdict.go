package normality

import (
	"math"
	"sync"

	"earlybird/internal/stats"
)

// Verdicts decides the three tests at one significance level for
// callers that count passes (the paper's Table 1) and read neither
// statistics nor p-values: Passed(xs, sorted)[t] ==
// BatterySorted(xs, sorted, alpha)[t].Passed() for every input. Build
// one per pass with NewVerdicts; the value is immutable, so concurrent
// callers may share it.
//
// Each test compares its statistic with a critical value computed once
// here instead of computing a p-value per sample, and trusts that
// comparison only when the statistic lies farther from the critical
// value than a proven bound on where the two decisions can differ;
// inside it, or outside the range the bound covers, the unchanged
// reference decides:
//
//   - D'Agostino compares K² with -2·ln α, for 20 ≤ n ≤ adMaxN and a
//     critical value in (0, k2MaxCrit) (see thresholdMargin);
//   - Shapiro-Wilk compares Royston's z with Φ⁻¹(1-α), for
//     11 < n ≤ adMaxN and a critical value in (-swMaxZ, swMaxZ);
//   - Anderson-Darling compares A²*, with ln Φ read from a table by
//     linear interpolation, with Stephens' critical value, for
//     8 ≤ n ≤ adMaxN (see adTableMargin).
type Verdicts struct {
	alpha float64
	// k2Crit and zCrit are NaN when alpha lies outside the range their
	// bound covers: every comparison with NaN is false, so the reference
	// decides each sample.
	k2Crit, zCrit float64
	adCrit        float64
}

// NewVerdicts returns the verdicts at significance alpha.
func NewVerdicts(alpha float64) Verdicts {
	v := Verdicts{
		alpha:  alpha,
		k2Crit: -2 * math.Log(alpha),
		zCrit:  stats.NormalQuantile(1 - alpha),
		adCrit: criticalValueFor(alpha),
	}
	if !(v.k2Crit > 0 && v.k2Crit < k2MaxCrit) {
		v.k2Crit = math.NaN()
	}
	if !(math.Abs(v.zCrit) < swMaxZ) {
		v.zCrit = math.NaN()
	}
	return v
}

// Alpha returns the significance level the verdicts decide at.
func (v Verdicts) Alpha() float64 { return v.alpha }

// Passed reports, per test, whether the sample passed, with the same
// arguments and contract as BatterySorted: xs in its original order and
// sorted an ascending copy of it, neither modified.
//
// Shapiro-Wilk and Anderson-Darling read the same mean and sum of
// squared deviations of sorted, so Passed computes them once.
func (v Verdicts) Passed(xs, sorted []float64) [3]bool {
	var out [3]bool
	out[DAgostino], _ = v.dagPassed(xs, sorted)
	sp := spreadOf(sorted)
	out[ShapiroWilk], _ = v.swPassed(sorted, sp)
	out[AndersonDarling], _ = v.adPassed(sorted, sp)
	return out
}

// spread is a sample's mean and its sum of squared deviations from it:
// the mean both references use, the sum that is Shapiro-Wilk's
// denominator and that VarianceAbout divides for Anderson-Darling. So
// statistics built from one shared spread have the references' bits.
type spread struct{ mean, ss float64 }

func spreadOf(x []float64) spread {
	m := stats.Mean(x)
	return spread{m, stats.SumSquaresAbout(x, m)}
}

// PassedSorted is NewVerdicts(alpha).Passed(xs, sorted), for a caller
// that decides a single sample at alpha; a caller that decides many
// builds the Verdicts once.
func PassedSorted(xs, sorted []float64, alpha float64) [3]bool {
	return NewVerdicts(alpha).Passed(xs, sorted)
}

// thresholdMargin is how far K² and Royston's z must sit from their
// critical values before the threshold verdicts trust their side of
// them. Both statistics are computed bit for bit as the reference
// computes them; the verdicts differ from the reference only in
// replacing its "p < α" by a comparison of the statistic itself:
//
//   - K² has 2 degrees of freedom, whose survival function is exactly
//     e^(-x/2), so p < α ⟺ K² > -2·ln α. ChiSquaredSF(x, 2) stays within
//     5.3e-15 relative of e^(-x/2) on (0, k2MaxCrit+2], which moves the
//     crossing by at most 1.1e-14 plus the rounding of -2·ln α; from
//     k2MaxCrit+2 up to the largest double it stays below its value
//     there, under every α whose critical value is in range.
//   - Royston's p is 1 - Φ(z), so p < α ⟺ z > Φ⁻¹(1-α). Mapping the
//     computed p back through NormalQuantile lands within 1.3e-13 of z
//     on ±(swMaxZ+0.3), and beyond that p stays on its side of its
//     values there.
//
// TestThresholdBounds measures both gaps; the margin is over 1000 times
// the larger. A K² of +Inf is a rejection on both sides; a NaN
// statistic goes to the reference, which rejects it too.
const thresholdMargin = 1e-9

// k2MaxCrit and swMaxZ bound the critical values whose neighbourhoods
// TestThresholdBounds sweeps: α in (e^-20, 1) for D'Agostino and about
// [0.0007, 0.9993] for Shapiro-Wilk, which holds the paper's 5% and
// Stephens' other tabulated levels.
const (
	k2MaxCrit = 40
	swMaxZ    = 3.2
)

// dagPassed is DAgostinoK2(xs, alpha)'s Passed() verdict, with an error
// counting as a rejection. It also reports whether the verdict came
// from the reference: a sample outside the threshold's size range, a
// constant sample, or a K² within thresholdMargin of the critical value
// or NaN.
func (v Verdicts) dagPassed(xs, sorted []float64) (passed, usedFallback bool) {
	if n := len(xs); n >= 20 && n <= adMaxN && sorted[0] != sorted[n-1] {
		k2 := constsFor(n).k2(xs)
		switch d := k2 - v.k2Crit; {
		case d > thresholdMargin:
			return false, false
		case d < -thresholdMargin:
			return true, false
		}
	}
	r, err := DAgostinoK2(xs, v.alpha)
	return err == nil && r.Passed(), true
}

// swPassed is ShapiroWilkSorted(x, alpha)'s Passed() verdict, with an
// error counting as a rejection, and whether it came from the reference
// (as dagPassed); sp is spreadOf(x). W = 1 gives z = -Inf, a pass as in
// swPValue; W > 1 gives NaN, which the reference decides.
func (v Verdicts) swPassed(x []float64, sp spread) (passed, usedFallback bool) {
	if n := len(x); n > 11 && n <= adMaxN && x[0] != x[n-1] {
		c := constsFor(n)
		switch d := swZ(swStatistic(x, c.swA, sp.ss), c) - v.zCrit; {
		case d > thresholdMargin:
			return false, false
		case d < -thresholdMargin:
			return true, false
		}
	}
	r, err := ShapiroWilkSorted(x, v.alpha)
	return err == nil && r.Passed(), true
}

// adMaxN is the largest sample the verdicts' fast forms take; larger
// samples go to the reference.
const adMaxN = 128

// The Anderson-Darling verdict reads g(z) = ln Φ(z) from lnPhiTable,
// sampled at step h = 1/adTableSteps = 2⁻⁸ over [-adTableZ, adTableZ].
// A sample standardised with the n-1 variance has |z| ≤ (n-1)/√n, below
// 11.23 for n ≤ adMaxN, so every z of a sample the table form takes
// lies inside it unless the arithmetic broke down.
const (
	adTableZ     = 11.25
	adTableSteps = 256
	adTableCells = 2 * adTableZ * adTableSteps
)

// lnPhiTable returns the table, g[k] = logNormalCDF(-adTableZ +
// k/adTableSteps) with every grid point exact. It is built on first use
// (about 0.5 ms), so a process that decides no verdict never pays for
// it.
var lnPhiTable = sync.OnceValue(func() *[adTableCells + 1]float64 {
	g := new([adTableCells + 1]float64)
	for k := range g {
		g[k] = logNormalCDF(-adTableZ + float64(k)/adTableSteps)
	}
	return g
})

// adTableMargin is how far the table's A²* must sit from the critical
// value before the Anderson-Darling verdict (Verdicts.adPassed) trusts
// its side of it, for a sample of n.
//
// The table form and AndersonDarlingSorted standardise with the same
// mean and deviation and evaluate the same sum
// S = Σ (2i+1)·g(z_i) + (2(n-1-i)+1)·g(-z_i), from which A² = -n - S/n;
// they differ in g. Since -g″ = λ(z)·(z+λ(z)) with λ = φ/Φ is one
// minus the variance of a normal truncated above z, it lies in (0, 1),
// so the linear interpolant of exact table entries is within h²/8 of g
// everywhere (and below it: g is concave). The weights of each i sum to 2n, so S
// moves by at most n²·h²/4 and A²* by at most 1.13·n·h²/4, with
// 1 + 0.75/n + 2.25/n² ≤ 1.13 for n ≥ 8: 2.1e-4 at n = 48.
//
// The constant term covers rounding, over 25 times: each g read from
// the table is off by at most 10³·u (u = 2⁻⁵³; |g| ≤ 67 and |g′| < 12
// on the table, and the table places z by a multiplication rather than
// the reference's division), and near a critical value both in-order
// sums of n same-signed terms by at most (n+3)·u·|S| with
// |S| ≈ n(n + A²), together under 4e-11 in A²* at n = adMaxN.
func adTableMargin(n int) float64 {
	const h = 1.0 / adTableSteps
	return 1.13*float64(n)*h*h/4 + 1e-9
}

// adPassed is AndersonDarlingSorted(x, alpha)'s Passed() verdict, with
// an error counting as a rejection. It also reports whether the verdict
// came from the reference because the table could not decide: a
// degenerate or oversized sample, a z outside the table or NaN, or a
// table A²* within adTableMargin of the critical value. sp is
// spreadOf(x).
func (v Verdicts) adPassed(x []float64, sp spread) (passed, usedFallback bool) {
	if a2star, ok := adTableStatisticAbout(x, sp); ok {
		margin := adTableMargin(len(x))
		switch d := a2star - v.adCrit; {
		case d > margin:
			return false, false
		case d < -margin:
			return true, false
		}
	}
	return adReferencePassed(x, v.alpha), true
}

// adTableStatisticAbout returns A²* of x, whose spreadOf is sp, with
// g = ln Φ read from lnPhiTable by linear interpolation, which differs
// from AndersonDarlingSorted's statistic by less than adTableMargin, or
// false when the sample is outside what the table handles.
func adTableStatisticAbout(x []float64, sp spread) (float64, bool) {
	n := len(x)
	if n < 8 || n > adMaxN || x[0] == x[n-1] {
		return 0, false
	}
	// The same mean and deviation as AndersonDarlingSorted:
	// VarianceAbout divides the same sum by n-1.
	mean := sp.mean
	sd := math.Sqrt(sp.ss / float64(n-1))
	scale := adTableSteps / sd
	g := lnPhiTable()
	nf := float64(n)
	sum := 0.0
	for i, xi := range x {
		// z sits at t = k + f cells from the table's left end, and -z
		// at adTableCells - t = m + (1-f) with m = adTableCells-1-k.
		t := (xi-mean)*scale + adTableZ*adTableSteps
		if !(t >= 0 && t < adTableCells) {
			return 0, false
		}
		k := int(t)
		f := t - float64(k)
		m := adTableCells - 1 - k
		lo := g[k] + f*(g[k+1]-g[k])
		hi := g[m+1] - f*(g[m+1]-g[m])
		w := float64(2*i + 1)
		sum += w*lo + (2*nf-w)*hi
	}
	a2 := -nf - sum/nf
	return a2 * (1 + 0.75/nf + 2.25/(nf*nf)), true
}

// adReferencePassed is the verdict of the unchanged AndersonDarlingSorted;
// a sample it cannot test counts as rejected, as in the battery.
func adReferencePassed(x []float64, alpha float64) bool {
	r, err := AndersonDarlingSorted(x, alpha)
	return err == nil && r.Passed()
}
