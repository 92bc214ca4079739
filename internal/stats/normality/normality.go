// Package normality implements the three normality tests the paper uses to
// classify thread-arrival distributions (Section 4.1): D'Agostino's K²
// omnibus test, the Shapiro-Wilk test (Royston's AS R94 algorithm), and the
// Anderson-Darling test with Stephens' case-3 small-sample adjustment
// (mean and variance estimated from the sample).
//
// Each test takes the null hypothesis that the sample is drawn from a
// normal distribution; the paper rejects at a 5% significance level.
//
// Two kinds of entry point share the tests. The per-test functions,
// Battery, BatteryScratch and BatterySorted return full Results —
// statistic, p-value and verdict — and their bits are pinned against
// reference implementations. Verdicts returns the verdicts alone, which is all the paper's Table 1
// counts, and equals BatterySorted(...)[t].Passed() on every input.
// Built once per pass, it holds each test's critical value at the
// pass's significance level: D'Agostino compares K² with -2·ln α and
// Shapiro-Wilk compares Royston's z with Φ⁻¹(1-α) instead of computing
// a p-value, and Anderson-Darling evaluates its statistic with ln Φ
// read by linear interpolation from a table built once per process, in
// place of 2n erfc and 2n logarithms. Each decision is trusted only
// when the statistic lies farther from the critical value than a proven
// bound on its disagreement with the reference; otherwise the unchanged
// reference decides. Reports that print a statistic keep calling the
// Result entry points.
//
// Every term that depends on the sample size alone — the Shapiro-Wilk
// weights and Royston's normalising constants, D'Agostino's skewness
// and kurtosis transformation constants — is computed once per size and
// shared, with the same expressions in the same order, so both kinds of
// entry point keep their bits.
package normality

import (
	"errors"
	"fmt"

	"earlybird/internal/sortx"
)

// DefaultAlpha is the significance level used throughout the paper.
const DefaultAlpha = 0.05

// Test identifies one of the three normality tests.
type Test int

const (
	// DAgostino is D'Agostino's K² omnibus test (skewness + kurtosis).
	DAgostino Test = iota
	// ShapiroWilk is the Shapiro-Wilk W test (Royston AS R94).
	ShapiroWilk
	// AndersonDarling is the Anderson-Darling A² test, case 3.
	AndersonDarling
)

// Tests lists all three tests in the order the paper's Table 1 reports them.
var Tests = []Test{DAgostino, ShapiroWilk, AndersonDarling}

// Slug returns the test's machine-readable name, used as a JSON object
// key by the serve layer's wire format.
func (t Test) Slug() string {
	switch t {
	case DAgostino:
		return "dagostino"
	case ShapiroWilk:
		return "shapiro_wilk"
	case AndersonDarling:
		return "anderson_darling"
	default:
		return fmt.Sprintf("test_%d", int(t))
	}
}

// String returns the conventional test name.
func (t Test) String() string {
	switch t {
	case DAgostino:
		return "D'Agostino"
	case ShapiroWilk:
		return "Shapiro-Wilk"
	case AndersonDarling:
		return "Anderson-Darling"
	default:
		return fmt.Sprintf("Test(%d)", int(t))
	}
}

// Result is the outcome of a single normality test on a sample.
type Result struct {
	Test Test
	// Statistic is the raw test statistic (K², W, or the adjusted A²*).
	Statistic float64
	// PValue is the p-value where the test provides one. The
	// Anderson-Darling decision is made against Stephens' critical
	// values; its PValue is an interpolated approximation.
	PValue float64
	// RejectNormal reports whether the null hypothesis of normality is
	// rejected at the significance level the test was run with.
	RejectNormal bool
	// N is the sample size.
	N int
}

// Passed reports whether the sample "passed" the normality test, i.e. the
// test failed to reject the null hypothesis — the quantity Table 1 counts.
func (r Result) Passed() bool { return !r.RejectNormal }

// Errors shared by the tests.
var (
	ErrSampleTooSmall = errors.New("normality: sample too small")
	ErrConstantSample = errors.New("normality: sample has zero variance")
)

// Battery runs all three tests at significance alpha and returns the
// results indexed by Test. A test that cannot run on the sample (for
// example, too few observations) contributes a zero Result with
// RejectNormal = true, matching the paper's treatment of degenerate sets.
//
// The sample is sorted once and the sorted copy shared by Shapiro-Wilk
// and Anderson-Darling (historically each test sorted its own copy);
// D'Agostino is moment-based and consumes the sample in its original
// order, so every statistic is bit-identical to the per-test entry
// points.
func Battery(xs []float64, alpha float64) [3]Result {
	return BatteryScratch(xs, nil, alpha)
}

// BatteryScratch is Battery with a caller-provided scratch buffer for
// the sorted copy, for callers that run the battery once per block but
// hold no sorted copy of their own (internal/analysis' block kernel
// shares its sorted copy through BatterySorted instead): when
// cap(scratch) >= len(xs) no allocation happens. scratch may be nil;
// its contents are overwritten.
func BatteryScratch(xs, scratch []float64, alpha float64) [3]Result {
	n := len(xs)
	if cap(scratch) < n {
		scratch = make([]float64, n)
	}
	scratch = scratch[:n]
	copy(scratch, xs)
	sortx.Sort(scratch)
	return BatterySorted(xs, scratch, alpha)
}

// BatterySorted is Battery for a caller that already holds the sample
// sorted: xs is the sample in its original order (D'Agostino's moments
// sum in that order) and sorted is an ascending copy of it, which
// Shapiro-Wilk and Anderson-Darling read. Neither slice is modified.
// The results are bit-identical to Battery(xs, alpha).
func BatterySorted(xs, sorted []float64, alpha float64) [3]Result {
	n := len(xs)
	var out [3]Result
	for _, t := range Tests {
		var (
			r   Result
			err error
		)
		switch t {
		case DAgostino:
			r, err = DAgostinoK2(xs, alpha)
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
