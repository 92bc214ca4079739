package normality

import (
	"math"

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
//   - Anderson-Darling compares a faster evaluation of A²* with
//     Stephens' critical value (see adMargin).
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
func (v Verdicts) Passed(xs, sorted []float64) [3]bool {
	var out [3]bool
	out[DAgostino], _ = v.dagPassed(xs, sorted)
	out[ShapiroWilk], _ = v.swPassed(sorted)
	out[AndersonDarling], _ = v.adPassed(sorted)
	return out
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
// the larger. A K² of +Inf (ChiSquaredSF is NaN there) or a NaN
// statistic is never trusted.
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
// or not finite.
func (v Verdicts) dagPassed(xs, sorted []float64) (passed, usedFallback bool) {
	if n := len(xs); n >= 20 && n <= adMaxN && sorted[0] != sorted[n-1] {
		k2 := constsFor(n).k2(xs)
		switch d := k2 - v.k2Crit; {
		case d > thresholdMargin && k2 <= math.MaxFloat64:
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
// (as dagPassed). W = 1 gives z = -Inf, a pass as in swPValue; W > 1
// gives NaN, which the reference decides.
func (v Verdicts) swPassed(x []float64) (passed, usedFallback bool) {
	if n := len(x); n > 11 && n <= adMaxN && x[0] != x[n-1] {
		c := constsFor(n)
		switch d := swZ(swStatistic(x, c.swA), c) - v.zCrit; {
		case d > thresholdMargin:
			return false, false
		case d < -thresholdMargin:
			return true, false
		}
	}
	r, err := ShapiroWilkSorted(x, v.alpha)
	return err == nil && r.Passed(), true
}

// adMargin is how far the fast A²* must sit from the critical value
// before the Anderson-Darling verdict (Verdicts.adPassed) trusts its
// side of it.
//
// Both forms read the same standardised z_i and the same doubles
// p_i = Φ(z_i) and q_i = Φ(-z_{n-1-i}) (erfcPair is bit-identical to the
// reference's two Erfc calls); they differ only in how they evaluate
// S = Σ (2i+1)·ln(p_i·q_i), from which A² = -n - S/n. With u = 2⁻⁵³ and
// |S| = n(n + A²):
//
//   - the reference rounds each ln to within 1 ulp, adds, scales and sums
//     n same-signed terms in order: |ΔS_ref| ≤ (n+3)·u·|S|;
//   - the fast form rounds each p_i·q_i once, each suffix product T_j and
//     each step of Π T_j once, takes one ln of a mantissa in [1/8, 1) and
//     adds the exponent times ln 2: |ΔS_fast| ≤ 2n²·u + 2.5·u·|S| + 10u.
//
// Dividing by n, adding the final roundings of A² and scaling by
// 1 + 0.75/n + 2.25/n² ≤ 1.13 bounds the gap between the two A²* near a
// critical value (A²* ≤ 1.1) by
//
//	B(n) ≤ 1.13·u·((n+7.5)(n+1.1) + 2n + 2),
//
// 3.5e-13 at n = 48 and 2.3e-12 at n = adMaxN = 128, the largest sample
// the fast form takes. The margin is over 400 times B(128) and over 5000
// times the largest gap measured between the two forms (5.1e-14 at
// n = 48 and 1.7e-13 at n = 128 over 400k random blocks of four shapes);
// inside it the reference decides.
const adMargin = 1e-9

// adMaxN is the largest sample the fast verdict handles; it sizes the
// stack buffer, and larger samples go to the reference.
const adMaxN = 128

// adPassed is AndersonDarlingSorted(x, alpha)'s Passed() verdict, with
// an error counting as a rejection. It also reports whether the verdict
// came from the reference because the fast form could not decide: a
// degenerate or oversized sample, a product outside the normal range or
// NaN, or a fast A²* within adMargin of the critical value.
func (v Verdicts) adPassed(x []float64) (passed, usedFallback bool) {
	if a2star, ok := adFastStatistic(x); ok {
		switch d := a2star - v.adCrit; {
		case d > adMargin:
			return false, false
		case d < -adMargin:
			return true, false
		}
	}
	return adReferencePassed(x, v.alpha), true
}

// adFastStatistic returns A²* as the fast form computes it, which
// differs from AndersonDarlingSorted's statistic by at most B(n) (see
// adMargin), or false when the sample is outside what the fast form
// handles.
//
// The fast form evaluates one erfc per sample (erfcPair gives both
// tails) and one logarithm per sample set. With suffix products
// T_j = Π_{i≥j} p_i·q_i and T_n = 1, each factor p_i·q_i appears 2i+1
// times in Π_j T_j·T_{j+1} = T_0·(Π_{j≥1} T_j)², so
// S = ln T_0 + 2·ln Π_{j≥1} T_j. The running product keeps its binary
// exponent apart, and the log is taken once at the end.
func adFastStatistic(x []float64) (float64, bool) {
	n := len(x)
	if n < 8 || n > adMaxN || x[0] == x[n-1] {
		return 0, false
	}
	// The same mean, deviation and z as AndersonDarlingSorted, so that
	// both forms see the same p_i and q_i.
	mean := stats.Mean(x)
	sd := math.Sqrt(stats.VarianceAbout(x, mean))

	// r[i] = Φ(z_i)·Φ(-z_{n-1-i}); sample i supplies Φ(z_i) to r[i] and
	// Φ(-z_i) to r[n-1-i], so i and its mirror are filled together.
	// Φ(z) = 0.5·erfc(-z/√2) as in logNormalCDF; |z| ≤ (n-1)/√n < 37, so
	// the reference never takes its asymptotic tail here.
	var rbuf [adMaxN]float64
	r := rbuf[:n]
	for i, k := 0, n-1; i <= k; i, k = i+1, k-1 {
		sfI, cdfI := erfcPair((x[i] - mean) / sd / math.Sqrt2)
		sfK, cdfK := erfcPair((x[k] - mean) / sd / math.Sqrt2)
		r[i] = 0.5 * cdfI * (0.5 * sfK)
		r[k] = 0.5 * cdfK * (0.5 * sfI)
	}

	// Fold the suffix products: t = T_j, and m·2^e = Π_{i≥j} T_i with m
	// renormalised into [1/2, 1) at every step. Each r ≤ 1, so t only
	// shrinks and a NaN anywhere reaches the final t: if that t is at
	// least 2⁻¹⁰⁰⁰, every m·t was a normal number; otherwise the fold is
	// discarded.
	t, m, e := 1.0, 1.0, 0
	for j := n - 1; j >= 1; j-- {
		t *= r[j]
		m *= t
		b := math.Float64bits(m)
		e += int(b>>52) - 1022
		m = math.Float64frombits(b&(1<<52-1) | 1022<<52)
	}
	t *= r[0]
	if !(t >= 0x1p-1000) {
		return 0, false
	}
	m0, e0 := math.Frexp(t)
	sum := math.Log(m0*(m*m)) + float64(e0+2*e)*math.Ln2

	nf := float64(n)
	a2 := -nf - sum/nf
	return a2 * (1 + 0.75/nf + 2.25/(nf*nf)), true
}

// adReferencePassed is the verdict of the unchanged AndersonDarlingSorted;
// a sample it cannot test counts as rejected, as in the battery.
func adReferencePassed(x []float64, alpha float64) bool {
	r, err := AndersonDarlingSorted(x, alpha)
	return err == nil && r.Passed()
}
