// Exact descriptive statistics over materialised float64 samples; the
// streaming counterparts live in stream.go.

package stats

import (
	"errors"
	"math"
	"sort"

	"earlybird/internal/sortx"
)

// ErrEmpty is returned by functions that cannot operate on empty samples.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs. It returns NaN for an empty
// sample so that plotting pipelines can propagate missing data.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance.
func Variance(xs []float64) float64 { return VarianceAbout(xs, Mean(xs)) }

// VarianceAbout is Variance for a caller that already holds the sample
// mean m, bit-identical to Variance when m == Mean(xs). The square is
// wrapped in float64() so that no compiler fuses it into the sum (see
// centralMoments); make lint-fma checks the arm64 build.
func VarianceAbout(xs []float64, m float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += float64(d * d)
	}
	return ss / float64(len(xs)-1)
}

// StdDev returns the unbiased sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// centralMoments returns the second, third and fourth central sample
// moments (divided by n) in one pass, NaN for an empty sample. Each power
// is a plain product — d², d²·d, d²·d² — which is bit-identical to
// math.Pow(d, k) for k = 2, 3, 4 outside the subnormal range (Pow
// squares and multiplies the same mantissas) at a fraction of the cost. Every product is wrapped in
// float64(): the Go spec lets the compiler fuse x*y + z into one FMA,
// which a GOAMD64=v3 build does, and a fused add skips the product's
// rounding and changes the last bit of the sum.
func centralMoments(xs []float64) (m2, m3, m4 float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	m := Mean(xs)
	for _, x := range xs {
		d := x - m
		d2 := float64(d * d)
		m2 += d2
		m3 += float64(d2 * d)
		m4 += float64(d2 * d2)
	}
	n := float64(len(xs))
	return m2 / n, m3 / n, m4 / n
}

// Skewness returns the sample skewness g1 = m3 / m2^(3/2), the moment
// estimator used by D'Agostino's test.
func Skewness(xs []float64) float64 {
	g1, _ := SkewnessKurtosis(xs)
	return g1
}

// Kurtosis returns the (non-excess) sample kurtosis b2 = m4 / m2^2.
// A normal sample has b2 close to 3.
func Kurtosis(xs []float64) float64 {
	_, b2 := SkewnessKurtosis(xs)
	return b2
}

// SkewnessKurtosis returns Skewness(xs) and Kurtosis(xs) from a single
// pass over the sample, for the moment-based normality tests that need
// both.
func SkewnessKurtosis(xs []float64) (g1, b2 float64) {
	m2, m3, m4 := centralMoments(xs)
	return m3 / math.Pow(m2, 1.5), m4 / (m2 * m2)
}

// Min returns the smallest element of xs.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	min := xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
	}
	return min
}

// Max returns the largest element of xs.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	max := xs[0]
	for _, x := range xs[1:] {
		if x > max {
			max = x
		}
	}
	return max
}

// Sorted returns a sorted copy of xs.
func Sorted(xs []float64) []float64 {
	out := make([]float64, len(xs))
	copy(out, xs)
	sort.Float64s(out)
	return out
}

// PercentileSorted returns the p-th percentile (0 <= p <= 100) of an
// already-sorted sample using linear interpolation between closest ranks
// (the "linear" method used by NumPy and R type 7).
func PercentileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return math.NaN()
	case n == 1 || p <= 0:
		return sorted[0]
	case p >= 100:
		return sorted[n-1]
	}
	lo, frac := percentileRank(n, p)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return interpolate(sorted[lo], sorted[lo+1], frac)
}

// percentileRank locates the p-th percentile (0 < p < 100) of n >= 2
// sorted samples: it lies frac of the way from rank lo to rank lo+1.
func percentileRank(n int, p float64) (lo int, frac float64) {
	h := (p / 100) * float64(n-1)
	lo = int(math.Floor(h))
	return lo, h - float64(lo)
}

// interpolate returns the point frac of the way from a to b.
func interpolate(a, b, frac float64) float64 {
	v := a + frac*(b-a)
	if math.IsInf(v, 0) || math.IsNaN(v) {
		// The difference overflowed (inputs near ±MaxFloat64); the convex
		// combination form cannot overflow past the endpoints.
		v = a*(1-frac) + b*frac
	}
	return v
}

// Percentile returns the p-th percentile of xs (unsorted input).
func Percentile(xs []float64, p float64) float64 {
	return PercentileSorted(Sorted(xs), p)
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// IQRSorted returns the inter-quartile range of a sorted sample.
func IQRSorted(sorted []float64) float64 {
	return PercentileSorted(sorted, 75) - PercentileSorted(sorted, 25)
}

// IQRSelect returns IQRSorted of xs's ascending order without sorting
// xs: sortx.Select places only the ranks the two quartiles interpolate
// between, and they are read with PercentileSorted's own rank and
// interpolation code, so the result is bit-identical. xs is reordered.
func IQRSelect(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return IQRSorted(xs)
	}
	lo25, frac25 := percentileRank(n, 25)
	lo75, frac75 := percentileRank(n, 75)
	// For n >= 2 both lo+1 ranks are below n. Each rank is selected in
	// the part of xs above the previous one, which Select left holding
	// exactly the larger ranks; a rank already placed is skipped.
	placed := 0
	for _, k := range [...]int{lo25, lo25 + 1, lo75, lo75 + 1} {
		if k >= placed {
			sortx.Select(xs[placed:], k-placed)
			placed = k + 1
		}
	}
	return interpolate(xs[lo75], xs[lo75+1], frac75) - interpolate(xs[lo25], xs[lo25+1], frac25)
}

// IQR returns the inter-quartile range of xs.
func IQR(xs []float64) float64 { return IQRSorted(Sorted(xs)) }

// Summary holds the descriptive statistics reported for a sample throughout
// the study.
type Summary struct {
	N        int
	Mean     float64
	StdDev   float64
	Min      float64
	P5       float64
	P25      float64
	Median   float64
	P75      float64
	P95      float64
	Max      float64
	IQR      float64
	Skewness float64
	Kurtosis float64
}

// Summarize computes a Summary for xs.
func Summarize(xs []float64) Summary {
	s := Sorted(xs)
	return Summary{
		N:        len(xs),
		Mean:     Mean(xs),
		StdDev:   StdDev(xs),
		Min:      Min(xs),
		P5:       PercentileSorted(s, 5),
		P25:      PercentileSorted(s, 25),
		Median:   PercentileSorted(s, 50),
		P75:      PercentileSorted(s, 75),
		P95:      PercentileSorted(s, 95),
		Max:      Max(xs),
		IQR:      IQRSorted(s),
		Skewness: Skewness(xs),
		Kurtosis: Kurtosis(xs),
	}
}
