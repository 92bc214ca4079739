// Streaming accumulators: one-pass, constant-memory counterparts of the
// exact descriptive statistics in desc.go, for studies too large to
// materialise. Moments tracks the first four central moments plus min/max
// (Welford/Pébay updates, exact up to floating-point rounding);
// QuantileHistogram is a collapsing uniform histogram that estimates
// percentiles from counts that depend only on the set of samples. Both
// types merge, so a parallel fill can keep one accumulator per worker and
// combine at the end; the histogram's merge is exact.

package stats

import (
	"math"
	"sync"
)

// Moments is a one-pass, mergeable accumulator of a sample's count, mean,
// central moments M2..M4 and min/max. Its accessors mirror the exact
// functions in desc.go: for the same sample, Mean/Variance/Skewness/
// Kurtosis agree with Mean()/Variance()/Skewness()/Kurtosis() up to
// floating-point rounding (typically within 1e-9 relative error).
// The zero value is an empty accumulator ready for use.
type Moments struct {
	n                int64
	mean, m2, m3, m4 float64
	minSeen, maxSeen float64
	nonEmpty         bool
}

// Add folds one observation into the accumulator (Welford/West update).
func (m *Moments) Add(x float64) {
	if !m.nonEmpty {
		m.minSeen, m.maxSeen = x, x
		m.nonEmpty = true
	} else {
		if x < m.minSeen {
			m.minSeen = x
		}
		if x > m.maxSeen {
			m.maxSeen = x
		}
	}
	n1 := float64(m.n)
	m.n++
	n := float64(m.n)
	delta := x - m.mean
	deltaN := delta / n
	deltaN2 := deltaN * deltaN
	term1 := delta * deltaN * n1
	m.mean += deltaN
	m.m4 += term1*deltaN2*(n*n-3*n+3) + 6*deltaN2*m.m2 - 4*deltaN*m.m3
	m.m3 += term1*deltaN*(n-2) - 3*deltaN*m.m2
	m.m2 += term1
}

// AddSlice folds every element of xs into the accumulator.
func (m *Moments) AddSlice(xs []float64) {
	for _, x := range xs {
		m.Add(x)
	}
}

// Merge folds another accumulator into this one (Pébay's pairwise update);
// o is not modified. Merging is associative up to floating-point rounding,
// so per-worker accumulators may be combined in any order.
func (m *Moments) Merge(o *Moments) {
	if o == nil || o.n == 0 {
		return
	}
	if m.n == 0 {
		*m = *o
		return
	}
	if o.minSeen < m.minSeen {
		m.minSeen = o.minSeen
	}
	if o.maxSeen > m.maxSeen {
		m.maxSeen = o.maxSeen
	}
	na, nb := float64(m.n), float64(o.n)
	n := na + nb
	delta := o.mean - m.mean
	d2 := delta * delta
	mean := m.mean + delta*nb/n
	m2 := m.m2 + o.m2 + d2*na*nb/n
	m3 := m.m3 + o.m3 + delta*d2*na*nb*(na-nb)/(n*n) +
		3*delta*(na*o.m2-nb*m.m2)/n
	m4 := m.m4 + o.m4 + d2*d2*na*nb*(na*na-na*nb+nb*nb)/(n*n*n) +
		6*d2*(na*na*o.m2+nb*nb*m.m2)/(n*n) +
		4*delta*(na*o.m3-nb*m.m3)/n
	m.n += o.n
	m.mean, m.m2, m.m3, m.m4 = mean, m2, m3, m4
}

// N returns the number of observations.
func (m *Moments) N() int64 { return m.n }

// Mean returns the arithmetic mean, NaN when empty.
func (m *Moments) Mean() float64 {
	if m.n == 0 {
		return math.NaN()
	}
	return m.mean
}

// Variance returns the unbiased (n-1) sample variance, NaN for n < 2.
func (m *Moments) Variance() float64 {
	if m.n < 2 {
		return math.NaN()
	}
	return m.m2 / float64(m.n-1)
}

// StdDev returns the unbiased sample standard deviation.
func (m *Moments) StdDev() float64 { return math.Sqrt(m.Variance()) }

// Skewness returns the moment estimator g1 = m3 / m2^(3/2), matching
// Skewness in desc.go.
func (m *Moments) Skewness() float64 {
	if m.n == 0 {
		return math.NaN()
	}
	n := float64(m.n)
	c2 := m.m2 / n
	c3 := m.m3 / n
	return c3 / math.Pow(c2, 1.5)
}

// Kurtosis returns the (non-excess) kurtosis b2 = m4 / m2^2, matching
// Kurtosis in desc.go.
func (m *Moments) Kurtosis() float64 {
	if m.n == 0 {
		return math.NaN()
	}
	n := float64(m.n)
	c2 := m.m2 / n
	c4 := m.m4 / n
	return c4 / (c2 * c2)
}

// Min returns the smallest observation, NaN when empty.
func (m *Moments) Min() float64 {
	if m.n == 0 {
		return math.NaN()
	}
	return m.minSeen
}

// Max returns the largest observation, NaN when empty.
func (m *Moments) Max() float64 {
	if m.n == 0 {
		return math.NaN()
	}
	return m.maxSeen
}

// QuantileBins is the number of count slots of a QuantileHistogram, a
// power of two. A histogram resolves its samples' range into at least
// QuantileBins/2 bins, so its quantile estimates sit within about
// 2·range/QuantileBins of the exact ones. At 512 the iteration IQR
// statistics of the three workloads are 0.01–0.34% off the exact values
// on average (EXPERIMENTS.md), for 2 KiB of counts per histogram. 1024
// halves that error, but every per-iteration histogram then takes 4 KiB
// to hold, encode and decode, and one trial shard's record round trip
// (BenchmarkShardWire) took 1.6–2 times the t-digest's.
const QuantileBins = 1 << 9

const (
	// binsPerSecond scales a sample to its level-0 bin: 1 ns for samples
	// in seconds.
	binsPerSecond = 1e9
	// maxBin saturates level-0 bins, so any float64 — ±Inf and ±1e300
	// included — has a bin, and bin differences fit in a uint64.
	maxBin = 1 << 62
	// slotMask maps a bin to its count slot.
	slotMask = QuantileBins - 1
)

// QuantileHistogram is a mergeable quantile estimator whose state
// depends only on the set of samples it has seen, never on their order
// or on how they were split between histograms before a merge.
//
// A sample x has the level-0 bin floor(x·1e9), saturated at ±2^62; at
// level k its bin is that shifted right by k. The histogram counts at
// the least level k where the smallest and largest sample's bins differ
// by less than QuantileBins — a function of the set's min and max alone
// — in QuantileBins slots indexed by the bin's low bits. The level
// rises, and counts collapse pairwise, only when a sample widens the
// range past what the slots hold. So Add, AddSorted and Merge commute:
// every order and every partition of the same samples yields the same
// state, and so the same Quantile bits. A NaN sample counts as 0.
//
// Quantile interpolates, like Percentile (type 7), between estimated
// order statistics: the smallest and largest are the exact min and max,
// and the others take a bin's c samples to sit at its start plus
// (i+½)/c of its width, i = 0..c-1, clamped to [min, max]. Each lies in
// the same bin as the exact order statistic, so a quantile is off by
// less than one bin width. The width is set by the whole range, so
// where a long tail sets it, a tight body falls in a few wide bins: for
// the laggard mixture of the tests one bin is a quarter to a half of
// the IQR and the quartiles are off by up to 2.2% of it, and the
// application-level percentiles of a minife study are off by up to 3%
// of its IQR, where the t-digest was within 0.2% (EXPERIMENTS.md). A
// bin holds fewer than 2^32 samples. The zero value is an empty
// histogram ready for use.
type QuantileHistogram struct {
	n        int64
	min, max float64
	level    uint8
	counts   *[QuantileBins]uint32 // nil while empty
}

// countsPool holds zeroed count arrays that Release returned, so the
// histograms of one shard exchange reuse those of the last.
var countsPool = sync.Pool{New: func() any { return new([QuantileBins]uint32) }}

// newCounts returns a zeroed count array, reused when one is pooled.
func newCounts() *[QuantileBins]uint32 { return countsPool.Get().(*[QuantileBins]uint32) }

// Release empties the histogram and returns its count array to a pool
// that later histograms draw from. Call it where a histogram's life
// ends: nothing may read the histogram, or a copy of it, afterwards
// until it is filled again. A released histogram is an empty one, ready
// for use.
func (h *QuantileHistogram) Release() {
	if h.counts != nil {
		clear(h.counts[:])
		countsPool.Put(h.counts)
	}
	*h = QuantileHistogram{}
}

// binOf returns x's level-0 bin (NaN's is 0).
func binOf(x float64) int64 {
	v := x * binsPerSecond
	switch {
	case v >= maxBin:
		return maxBin
	case v <= -maxBin:
		return -maxBin
	case v == v:
		return int64(math.Floor(v))
	}
	return 0
}

// levelFor returns the least level at or above from where the level-0
// bins lo <= hi fall fewer than QuantileBins bins apart. The difference
// is taken in uint64: at level 0 it can reach 2^63.
func levelFor(lo, hi int64, from uint8) uint8 {
	l := from
	for uint64(hi>>l-lo>>l) >= QuantileBins {
		l++
	}
	return l
}

// notNaN maps NaN to 0, the value a NaN sample counts as.
func notNaN(x float64) float64 {
	if x != x {
		return 0
	}
	return x
}

// N returns the number of samples added.
func (h *QuantileHistogram) N() int64 { return h.n }

// Add folds one sample into the histogram.
func (h *QuantileHistogram) Add(x float64) {
	x = notNaN(x)
	h.extend(x, x)
	h.counts[binOf(x)>>h.level&slotMask]++
	h.n++
}

// AddSlice folds every element of xs into the histogram.
func (h *QuantileHistogram) AddSlice(xs []float64) {
	for _, x := range xs {
		h.Add(x)
	}
}

// AddSorted folds a run, sorted ascending as sortx.Sort leaves it (-0
// before +0, a -NaN first and a +NaN last), into the histogram; the
// result is the same as adding each value. It reads a NaN-free run's
// range from its ends, so the level rises at most once per run. A run
// with a NaN at either end, whose ends are not its range, is added
// sample by sample.
//
// When lo ≥ 0 and hi·1e9 < 2^62 for the run's ends lo and hi, every
// sample x of the run has 0 ≤ x·1e9 < 2^62, where truncation to int64
// is binOf's floor (-0 included), so the run is binned without binOf's
// saturation and NaN branches.
func (h *QuantileHistogram) AddSorted(xs []float64) {
	if len(xs) == 0 {
		return
	}
	lo, hi := xs[0], xs[len(xs)-1]
	if lo != lo || hi != hi {
		h.AddSlice(xs)
		return
	}
	h.extend(lo, hi)
	counts, l := h.counts, h.level
	if lo >= 0 && hi*binsPerSecond < maxBin {
		for _, x := range xs {
			counts[int64(x*binsPerSecond)>>l&slotMask]++
		}
	} else {
		for _, x := range xs {
			counts[binOf(x)>>l&slotMask]++
		}
	}
	h.n += int64(len(xs))
}

// Merge folds o's samples into h; o is not modified. The merged state is
// that of one histogram fed both sample sets.
func (h *QuantileHistogram) Merge(o *QuantileHistogram) {
	if o == nil || o.n == 0 {
		return
	}
	h.extend(o.min, o.max)
	h.fold(o)
	h.n += o.n
}

// extend widens the histogram's range to cover [lo, hi], raising the
// level (and collapsing counts) if the widened range no longer fits the
// slots. The built-in min and max order -0 below +0, so the range does
// not depend on which zero came first.
func (h *QuantileHistogram) extend(lo, hi float64) {
	if h.n == 0 {
		if h.counts == nil {
			h.counts = newCounts()
		}
		h.min, h.max, h.level = lo, hi, levelFor(binOf(lo), binOf(hi), 0)
		return
	}
	lo, hi = min(h.min, lo), max(h.max, hi)
	if l := levelFor(binOf(lo), binOf(hi), h.level); l > h.level {
		h.collapse(l)
	}
	h.min, h.max = lo, hi
}

// collapse raises h's level to l > h.level in place, one level at a
// time: each step copies the occupied span's counts, in bin order from
// an even bin, into a stack scratch, clears the slots and writes each
// pair's sum to its new bin's slot. A rise is almost always one level,
// and summing pairs in registers avoids the chain of read-modify-writes
// to one slot that folding bin by bin makes.
func (h *QuantileHistogram) collapse(l uint8) {
	for ; h.level < l; h.level++ {
		lo, hi := h.bins()
		base := lo &^ 1 // the even bin pairing with lo
		// At most QuantileBins+1 bins from base, and a zero after an odd count.
		var pairs [QuantileBins + 2]uint32
		n := hi - base + 1
		k := copy(pairs[lo-base:n], h.counts[lo&slotMask:])
		copy(pairs[lo-base+int64(k):n], h.counts[:])
		clear(h.counts[:])
		for j := int64(0); 2*j < n; j++ {
			h.counts[(base>>1+j)&slotMask] = pairs[2*j] + pairs[2*j+1]
		}
	}
}

// bins returns the lowest and highest occupied bins at h's level.
func (h *QuantileHistogram) bins() (lo, hi int64) {
	return binOf(h.min) >> h.level, binOf(h.max) >> h.level
}

// fold adds o's counts into h's slots. h's level must be at least o's
// and h's range must cover o's.
func (h *QuantileHistogram) fold(o *QuantileHistogram) {
	shift := h.level - o.level
	lo, hi := o.bins()
	for b := lo; b <= hi; b++ {
		h.counts[b>>shift&slotMask] += o.counts[b&slotMask]
	}
}

// Quantile returns the estimated p-quantile for p in [0, 1] (clamped),
// NaN when empty or for a NaN p.
func (h *QuantileHistogram) Quantile(p float64) float64 {
	if h.n == 0 || p != p {
		return math.NaN()
	}
	pos := min(max(p, 0), 1) * float64(h.n-1)
	j := int64(pos)
	frac := pos - float64(j)
	width := float64(int64(1) << h.level)
	var at [2]float64 // estimated order statistics j and j+1
	found, cum := 0, int64(0)
	lo, hi := h.bins()
	for b := lo; found < 2 && b <= hi; b++ {
		c := int64(h.counts[b&slotMask])
		for ; found < 2 && j+int64(found) < cum+c; found++ {
			k := j + int64(found)
			switch k {
			case 0:
				at[found] = h.min
			case h.n - 1:
				at[found] = h.max
			default:
				x := (float64(b) + (float64(k-cum)+0.5)/float64(c)) * width / binsPerSecond
				at[found] = min(max(x, h.min), h.max)
			}
		}
		cum += c
	}
	if found < 2 || frac == 0 { // j is the last order statistic, or exact
		return at[0]
	}
	return at[0] + float64(frac*(at[1]-at[0]))
}

// IQR returns the estimated inter-quartile range.
func (h *QuantileHistogram) IQR() float64 { return h.Quantile(0.75) - h.Quantile(0.25) }

// StreamSummary assembles a Summary from streaming accumulators: exact
// N/mean/stddev/min/max/skewness/kurtosis from the moments, estimated
// percentiles from the histogram.
func StreamSummary(m *Moments, q *QuantileHistogram) Summary {
	return Summary{
		N:        int(m.N()),
		Mean:     m.Mean(),
		StdDev:   m.StdDev(),
		Min:      m.Min(),
		P5:       q.Quantile(0.05),
		P25:      q.Quantile(0.25),
		Median:   q.Quantile(0.50),
		P75:      q.Quantile(0.75),
		P95:      q.Quantile(0.95),
		Max:      m.Max(),
		IQR:      q.IQR(),
		Skewness: m.Skewness(),
		Kurtosis: m.Kurtosis(),
	}
}
