package stats

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"earlybird/internal/sortx"
)

// relDiff returns |a-b| / max(|a|, |b|, 1e-300).
func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1e-300 {
		return d
	}
	return d / scale
}

// streamCases generates the sample families the property tests run over:
// tight normal (arrival-like), uniform, lognormal (heavy right tail) and a
// laggard mixture resembling the paper's process iterations.
func streamCases(r *rand.Rand, n int) map[string][]float64 {
	normal := make([]float64, n)
	uniform := make([]float64, n)
	lognormal := make([]float64, n)
	mixture := make([]float64, n)
	for i := 0; i < n; i++ {
		normal[i] = 26.3e-3 + 0.18e-3*r.NormFloat64()
		uniform[i] = 10e-3 + 20e-3*r.Float64()
		lognormal[i] = math.Exp(-3.6 + 0.4*r.NormFloat64())
		mixture[i] = 24.7e-3 + 0.1e-3*r.NormFloat64()
		if r.Float64() < 0.05 {
			mixture[i] += 1e-3 + r.ExpFloat64()*2e-3
		}
	}
	return map[string][]float64{
		"normal":    normal,
		"uniform":   uniform,
		"lognormal": lognormal,
		"mixture":   mixture,
	}
}

// TestMomentsMatchesExact: the streaming Moments accumulator must agree
// with the exact two-pass statistics within floating-point rounding
// (documented tolerance: 1e-9 relative).
func TestMomentsMatchesExact(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for name, xs := range streamCases(r, 20000) {
		t.Run(name, func(t *testing.T) {
			var m Moments
			m.AddSlice(xs)
			checks := []struct {
				what      string
				got, want float64
			}{
				{"mean", m.Mean(), Mean(xs)},
				{"variance", m.Variance(), Variance(xs)},
				{"stddev", m.StdDev(), stdDev(xs)},
				{"skewness", m.Skewness(), skewness(xs)},
				{"kurtosis", m.Kurtosis(), kurtosis(xs)},
				{"min", m.Min(), Min(xs)},
				{"max", m.Max(), Max(xs)},
			}
			if m.N() != int64(len(xs)) {
				t.Fatalf("N = %d, want %d", m.N(), len(xs))
			}
			for _, c := range checks {
				if relDiff(c.got, c.want) > 1e-9 {
					t.Errorf("%s: streaming %v vs exact %v (rel %g)", c.what, c.got, c.want, relDiff(c.got, c.want))
				}
			}
		})
	}
}

// TestMomentsMergeMatchesSequential: merging per-shard accumulators must
// agree with one sequential pass — the property the parallel fill relies
// on.
func TestMomentsMergeMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for name, xs := range streamCases(r, 12000) {
		t.Run(name, func(t *testing.T) {
			var whole Moments
			whole.AddSlice(xs)
			var merged Moments
			for i := 0; i < len(xs); i += 1700 { // uneven shards
				end := i + 1700
				if end > len(xs) {
					end = len(xs)
				}
				var shard Moments
				shard.AddSlice(xs[i:end])
				merged.Merge(&shard)
			}
			if merged.N() != whole.N() {
				t.Fatalf("merged N = %d, want %d", merged.N(), whole.N())
			}
			for _, c := range []struct {
				what      string
				got, want float64
			}{
				{"mean", merged.Mean(), whole.Mean()},
				{"variance", merged.Variance(), whole.Variance()},
				{"skewness", merged.Skewness(), whole.Skewness()},
				{"kurtosis", merged.Kurtosis(), whole.Kurtosis()},
				{"min", merged.Min(), whole.Min()},
				{"max", merged.Max(), whole.Max()},
			} {
				if relDiff(c.got, c.want) > 1e-8 {
					t.Errorf("%s: merged %v vs sequential %v", c.what, c.got, c.want)
				}
			}
		})
	}
}

func TestMomentsEmptyAndDegenerate(t *testing.T) {
	var m Moments
	if !math.IsNaN(m.Mean()) || !math.IsNaN(m.Variance()) || !math.IsNaN(m.Min()) || !math.IsNaN(m.Max()) {
		t.Fatal("empty accumulator should report NaN")
	}
	m.Add(3)
	if m.Mean() != 3 || m.Min() != 3 || m.Max() != 3 {
		t.Fatal("single observation mishandled")
	}
	if !math.IsNaN(m.Variance()) {
		t.Fatal("variance of n=1 should be NaN")
	}
	var other Moments
	other.Merge(&m)
	if other.Mean() != 3 || other.N() != 1 {
		t.Fatal("merge into empty lost state")
	}
}

// binWidth returns the width, in seconds, of h's bins.
func binWidth(h *QuantileHistogram) float64 { return float64(int64(1)<<h.level) / binsPerSecond }

// checkWithinBin holds h's percentiles to the histogram's guarantee:
// each estimated order statistic sits in the same bin as the exact one,
// so every type-7 percentile is off by less than one bin width — and a
// bin is at most 2/(QuantileBins-1) of the sample range wide (plus the
// 1 ns of level 0).
func checkWithinBin(t *testing.T, h *QuantileHistogram, sorted []float64) {
	t.Helper()
	w := binWidth(h)
	if limit := 2*(sorted[len(sorted)-1]-sorted[0])/(QuantileBins-1) + 1/binsPerSecond; w > limit {
		t.Errorf("bin width %v over 2·range/(bins-1) = %v", w, limit)
	}
	for _, p := range []float64{0, 5, 25, 50, 75, 95, 100} {
		got, want := h.Quantile(p/100), PercentileSorted(sorted, p)
		if math.Abs(got-want) > w*(1+1e-9) {
			t.Errorf("p%g: histogram %v vs exact %v, %.3g bins apart", p, got, want, math.Abs(got-want)/w)
		}
	}
	if h.N() != int64(len(sorted)) {
		t.Fatalf("N = %d, want %d", h.N(), len(sorted))
	}
}

// empiricalRank returns the fraction of sorted that lies below x.
func empiricalRank(sorted []float64, x float64) float64 {
	i, _ := slices.BinarySearch(sorted, x)
	return float64(i) / float64(len(sorted))
}

// TestQuantileSketchMatchesExact checks the histogram's guarantee on
// every sample family, the rank tolerances the t-digest it replaced was
// held to (±2% at P5 and P95, ±1.5% at the quartiles), and the quartiles
// and median in value: within 1% of the sample IQR where the range is
// the body's, and within 3% for the laggard mixture, whose tail sets the
// range, so that its tight body falls in a few wide bins (the worst
// measured over seeds 20–29 was 2.2%, where the t-digest was held to
// 2%).
func TestQuantileSketchMatchesExact(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for name, xs := range streamCases(r, 20000) {
		t.Run(name, func(t *testing.T) {
			var h QuantileHistogram
			h.AddSlice(xs)
			sorted := Sorted(xs)
			checkWithinBin(t, &h, sorted)
			for p, tol := range map[float64]float64{5: 0.02, 25: 0.015, 50: 0.015, 75: 0.015, 95: 0.02} {
				if rank := empiricalRank(sorted, h.Quantile(p/100)); math.Abs(rank-p/100) > tol {
					t.Errorf("p%g: histogram estimate sits at empirical rank %.4f (tol ±%g)", p, rank, tol)
				}
			}
			tol := 0.01 * IQRSorted(sorted)
			if name == "mixture" {
				tol = 0.03 * IQRSorted(sorted)
			}
			for _, p := range []float64{25, 50, 75} {
				if got, want := h.Quantile(p/100), PercentileSorted(sorted, p); math.Abs(got-want) > tol {
					t.Errorf("p%g: histogram %v vs exact %v (tol %v)", p, got, want, tol)
				}
			}
		})
	}
}

// sameHistogram fails unless a and b hold the same state, so that every
// Quantile answers the same bits.
func sameHistogram(t *testing.T, what string, a, b *QuantileHistogram) {
	t.Helper()
	if a.n != b.n || math.Float64bits(a.min) != math.Float64bits(b.min) || math.Float64bits(a.max) != math.Float64bits(b.max) ||
		a.level != b.level || *a.counts != *b.counts {
		t.Fatalf("%s: state differs (n %d/%d, range [%v,%v]/[%v,%v], level %d/%d)",
			what, a.n, b.n, a.min, a.max, b.min, b.max, a.level, b.level)
	}
	for _, p := range []float64{0, 0.05, 0.25, 0.5, 0.75, 0.95, 1} {
		if x, y := a.Quantile(p), b.Quantile(p); math.Float64bits(x) != math.Float64bits(y) {
			t.Fatalf("%s: quantile %g is %v vs %v", what, p, x, y)
		}
	}
}

// TestQuantileSketchMergeMatchesWhole: a merge of per-shard histograms
// is the histogram of the whole sample, state and quantiles alike.
func TestQuantileSketchMergeMatchesWhole(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for name, xs := range streamCases(r, 16000) {
		t.Run(name, func(t *testing.T) {
			var whole, merged QuantileHistogram
			whole.AddSlice(xs)
			for i := 0; i < len(xs); i += 3000 {
				var shard QuantileHistogram
				shard.AddSlice(xs[i:min(i+3000, len(xs))])
				merged.Merge(&shard)
			}
			sameHistogram(t, name, &merged, &whole)
		})
	}
}

// TestQuantileHistogramMergeBitIdentical is the order-free contract the
// sweep, the fleet and StreamStudy rely on: any permutation of the
// samples, cut into any blocks, fed through Add or AddSorted into any
// number of histograms merged in any order, yields the same state and
// the same Quantile bits.
func TestQuantileHistogramMergeBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	for name, xs := range streamCases(r, 9600) {
		var want QuantileHistogram
		want.AddSlice(xs)
		for round := 0; round < 20; round++ {
			perm := r.Perm(len(xs))
			parts := make([]QuantileHistogram, 1+r.Intn(5))
			for i := 0; i < len(xs); {
				block := make([]float64, min(1+r.Intn(100), len(xs)-i))
				for j := range block {
					block[j] = xs[perm[i+j]]
				}
				i += len(block)
				h := &parts[r.Intn(len(parts))]
				if r.Intn(2) == 0 {
					h.AddSlice(block)
				} else {
					h.AddSorted(Sorted(block))
				}
			}
			var got QuantileHistogram
			for _, k := range r.Perm(len(parts)) {
				got.Merge(&parts[k])
			}
			sameHistogram(t, name, &got, &want)
		}
	}
}

func TestQuantileSketchEdgeCases(t *testing.T) {
	var h QuantileHistogram
	if !math.IsNaN(h.Quantile(0.5)) || !math.IsNaN(h.IQR()) {
		t.Fatal("empty histogram should report NaN")
	}
	h.Add(4)
	if h.Quantile(0.5) != 4 || h.Quantile(0) != 4 || h.Quantile(1) != 4 {
		t.Fatalf("single-value histogram: %v", h.Quantile(0.5))
	}
	// A constant stream's estimates are clamped to its exact min = max.
	for i := 0; i < 5000; i++ {
		h.Add(4)
	}
	if h.level != 0 || h.Quantile(0.25) != 4 || h.Quantile(0.99) != 4 || h.IQR() != 0 {
		t.Fatal("constant stream quantiles wrong")
	}
	if !math.IsNaN(h.Quantile(math.NaN())) || h.Quantile(-1) != h.Quantile(0) || h.Quantile(2) != h.Quantile(1) {
		t.Fatal("out-of-range p not clamped")
	}
	// Negative samples floor into their bins like positive ones.
	var neg QuantileHistogram
	neg.AddSlice([]float64{-2e-3, -1e-3, 0, 1e-3})
	checkWithinBin(t, &neg, []float64{-2e-3, -1e-3, 0, 1e-3})
}

// TestQuantileSketchNonFiniteSamples: NaN (counted as 0), ±Inf and
// ±1e300 have bins (saturated at ±2^62 ns), so no sample can index
// outside the counts or stall the level search, whatever it is mixed
// with; finite samples keep finite quantiles, and a histogram of such
// samples still round-trips the codec.
func TestQuantileSketchNonFiniteSamples(t *testing.T) {
	// Finite (NaN counts as 0) up to index finite, then infinite.
	hostile := []float64{math.NaN(), 1e300, -1e300, math.MaxFloat64, -math.SmallestNonzeroFloat64, 0, math.Inf(1), math.Inf(-1)}
	const finite = 6
	for i, x := range hostile {
		var h, sorted QuantileHistogram
		h.Add(26e-3)
		h.Add(x)
		h.AddSlice(hostile[:i])
		sorted.AddSorted([]float64{-1e300, notNaN(x), 1e300})
		h.Merge(&sorted)
		if h.N() != int64(i+5) || h.level > 62 {
			t.Fatalf("%v: n %d, level %d", x, h.N(), h.level)
		}
		for _, p := range []float64{0, 0.25, 0.5, 0.75, 1} {
			if q := h.Quantile(p); i < finite && (math.IsNaN(q) || math.IsInf(q, 0)) {
				t.Fatalf("%v: quantile %g is %v", x, p, q)
			}
		}
		enc, _ := h.MarshalBinary()
		var back QuantileHistogram
		if err := back.UnmarshalBinary(enc); err != nil {
			t.Fatalf("%v: %v", x, err)
		}
		sameHistogram(t, "decoded", &back, &h)
	}
	var nan, zero QuantileHistogram
	nan.Add(math.NaN())
	zero.Add(0)
	sameHistogram(t, "NaN", &nan, &zero)
}

// summarize is the exact Summary of xs, from a sorted copy: the
// reference StreamSummary's moments and histogram quantiles approach.
func summarize(xs []float64) Summary {
	s := Sorted(xs)
	return Summary{
		N:        len(xs),
		Mean:     Mean(xs),
		StdDev:   stdDev(xs),
		Min:      Min(xs),
		P5:       PercentileSorted(s, 5),
		P25:      PercentileSorted(s, 25),
		Median:   PercentileSorted(s, 50),
		P75:      PercentileSorted(s, 75),
		P95:      PercentileSorted(s, 95),
		Max:      Max(xs),
		IQR:      IQRSorted(s),
		Skewness: skewness(xs),
		Kurtosis: kurtosis(xs),
	}
}

func TestStreamSummary(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = 5 + 2*r.NormFloat64()
	}
	var m Moments
	var q QuantileHistogram
	m.AddSlice(xs)
	q.AddSlice(xs)
	got := StreamSummary(&m, &q)
	want := summarize(xs)
	if got.N != want.N || got.Min != want.Min || got.Max != want.Max {
		t.Fatal("exact fields differ")
	}
	if relDiff(got.Mean, want.Mean) > 1e-9 || relDiff(got.StdDev, want.StdDev) > 1e-9 {
		t.Fatal("moment fields differ")
	}
	w := binWidth(&q)
	for _, c := range [][2]float64{{got.P5, want.P5}, {got.P25, want.P25}, {got.Median, want.Median}, {got.P75, want.P75}, {got.P95, want.P95}} {
		if math.Abs(c[0]-c[1]) > w {
			t.Fatalf("percentile %v vs %v, over one bin (%v)", c[0], c[1], w)
		}
	}
	if math.Abs(got.IQR-want.IQR) > 2*w {
		t.Fatalf("IQR %v vs %v", got.IQR, want.IQR)
	}
}

// TestQuantileSketchAddSortedMatchesExact drives the AddSorted path with
// the hot-path block shape (sorted runs of 48, a simulated rank's thread
// count): the state is the one Add builds, within one bin of exact.
func TestQuantileSketchAddSortedMatchesExact(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for name, xs := range streamCases(r, 20016) {
		t.Run(name, func(t *testing.T) {
			var sorted, added QuantileHistogram
			for i := 0; i < len(xs); i += 48 {
				sorted.AddSorted(Sorted(xs[i : i+48]))
			}
			added.AddSlice(xs)
			sameHistogram(t, name, &sorted, &added)
			checkWithinBin(t, &sorted, Sorted(xs))
		})
	}
}

// TestQuantileSketchMixedAddAddSorted interleaves scalar Adds with
// sorted runs and merges: no path loses or double-counts a sample.
func TestQuantileSketchMixedAddAddSorted(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	xs := make([]float64, 12000)
	for i := range xs {
		xs[i] = 5 + 2*r.NormFloat64()
	}
	var q QuantileHistogram
	for i := 0; i < len(xs); i += 48 {
		if (i/48)%3 == 0 {
			q.AddSlice(xs[i : i+48])
		} else {
			q.AddSorted(Sorted(xs[i : i+48]))
		}
	}
	sorted := Sorted(xs)
	checkWithinBin(t, &q, sorted)
	var q2, twice QuantileHistogram
	q2.AddSorted(sorted)
	q.Merge(&q2)
	twice.AddSlice(xs)
	twice.AddSlice(xs)
	sameHistogram(t, "merged", &q, &twice)
}

// TestQuantileSketchAddSortedMemoryBound pins the histogram's memory:
// one array of QuantileBins counts, allocated by the first sample and
// never again — whether the range widens (the level rising) or not.
func TestQuantileSketchAddSortedMemoryBound(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	var q QuantileHistogram
	block := make([]float64, 48)
	q.AddSorted(Sorted(block))
	scale := 1e-6
	allocs := testing.AllocsPerRun(4000, func() {
		for j := range block {
			block[j] = scale * r.NormFloat64()
		}
		scale *= 1.01 // widen the range: the level keeps rising
		slices.Sort(block)
		q.AddSorted(block)
	})
	if allocs > 0.1 {
		t.Fatalf("AddSorted allocated %v times per block", allocs)
	}
	if q.level < 10 {
		t.Fatalf("level %d: the range never widened", q.level)
	}
}

// TestAddSortedMatchesAdd: a run fed through AddSorted, on its
// truncating path or binOf's, encodes to the same bytes as its samples
// fed one by one through Add. The runs sit on the truncating path's
// edges: from -0 and +0, around 2^62/1e9 s where binOf saturates, below
// zero, to ±Inf, runs with a NaN at either end or only NaNs (sortx puts
// a -NaN first and a +NaN last), and 200 random 48-sample runs of
// either sign, each fed into a fresh histogram and into ones already
// holding other samples.
func TestAddSortedMatchesAdd(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan := math.NaN()
	edge := float64(maxBin) / binsPerSecond
	below := edge // the largest run end the truncating path takes
	for below*binsPerSecond >= maxBin {
		below = math.Nextafter(below, 0)
	}
	runs := map[string][]float64{
		"from -0":                      {negZero, 0, 1e-9, 1.5e-9, 26e-3},
		"from +0":                      {0, 0, 0.5e-9, 2e-9, 3e-3},
		"only -0":                      {negZero, negZero},
		"up to 2^62 ns":                {below / 2, math.Nextafter(below, 0), below},
		"straddling 2^62 ns":           {below / 2, below, edge, math.Nextafter(edge, math.Inf(1)), 2 * edge},
		"negative lo":                  {-3e-3, -1e-9, negZero, 0, 2e-3},
		"negative lo, fractional bins": {-1.5e-9, -0.5e-9, negZero, 0.5e-9},
		"+Inf end":                     {0, 1e-3, math.Inf(1)},
		"-Inf end":                     {math.Inf(-1), 1e-3, 2e-3},
		"both Inf ends":                {math.Inf(-1), 0, math.Inf(1)},
		"-NaN first":                   {-nan, -2e-3, 1e-3, 5e-3},
		"+NaN last":                    {1e-3, 2e-3, 5e-3, nan},
		"NaN at both ends":             {-nan, -4e-3, 3e-3, nan},
		"-NaN before negatives":        {-nan, -nan, -7e-3, -5e-3},
		"only NaN":                     {nan, nan, nan},
		"only -NaN":                    {-nan},
	}
	r := rand.New(rand.NewSource(53))
	for i := 0; i < 200; i++ {
		run := make([]float64, 48)
		scale := math.Pow(10, -9+9*r.Float64()) // 1 ns to 1 s
		offset := scale * (6*r.Float64() - 1)
		for j := range run {
			run[j] = offset + scale*r.NormFloat64()
		}
		sortx.Sort(run)
		runs[fmt.Sprintf("random %d", i)] = run
	}
	for name, run := range runs {
		for _, prior := range [][]float64{nil, {5e-3, 7e-3}, {-1, 1e3}} {
			var sorted, added QuantileHistogram
			sorted.AddSlice(prior)
			added.AddSlice(prior)
			sorted.AddSorted(run)
			for _, x := range run {
				added.Add(x)
			}
			got, _ := sorted.AppendBinary(nil)
			want, _ := added.AppendBinary(nil)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s after %v: AddSorted encodes to %x, Add to %x", name, prior, got, want)
			}
		}
	}
}

// copyClearFold is the level rise extend made before collapse: copy the
// counts, clear them and fold the copy back at level l.
func copyClearFold(h *QuantileHistogram, l uint8) {
	old := QuantileHistogram{min: h.min, max: h.max, level: h.level, counts: new([QuantileBins]uint32)}
	*old.counts = *h.counts
	clear(h.counts[:])
	h.level = l
	h.fold(&old)
}

// TestCollapseMatchesCopyClearFold: the in-place level rise leaves the
// counts the copy-clear-fold left, at every level step from a
// histogram's own level to the top, as one jump and as a chain of
// single steps, for ranges of either sign at any offset against the
// slots.
func TestCollapseMatchesCopyClearFold(t *testing.T) {
	clone := func(h *QuantileHistogram) *QuantileHistogram {
		c := *h
		c.counts = new([QuantileBins]uint32)
		*c.counts = *h.counts
		return &c
	}
	same := func(what string, a, b *QuantileHistogram) {
		t.Helper()
		if a.level != b.level || *a.counts != *b.counts {
			t.Fatalf("%s: level %d/%d, counts differ", what, a.level, b.level)
		}
	}
	r := rand.New(rand.NewSource(59))
	for i := 0; i < 300; i++ {
		var h QuantileHistogram
		center := (2*r.Float64() - 1) * math.Pow(10, -9+12*r.Float64())
		spread := math.Pow(10, -9+10*r.Float64())
		for j := 1 + r.Intn(2000); j > 0; j-- {
			h.Add(center + spread*r.NormFloat64())
		}
		chain, ref := clone(&h), clone(&h)
		for l := h.level + 1; l < 64; l++ {
			got, want := clone(&h), clone(&h)
			got.collapse(l)
			copyClearFold(want, l)
			same(fmt.Sprintf("histogram %d, level %d to %d", i, h.level, l), got, want)
			chain.collapse(l)
			copyClearFold(ref, l)
			same(fmt.Sprintf("histogram %d, step to level %d", i, l), chain, ref)
		}
	}
}

// TestReleasedCountsReuseMatchesFresh pins that a histogram on a count
// array Release returned is the histogram on a fresh one: Release
// clears the array it pools, and a histogram added to, or decoded into,
// the reused array encodes to the same bytes and gives the same
// quantile bits as one on a new array.
func TestReleasedCountsReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sample := func(n int, scale float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = scale * rng.ExpFloat64()
		}
		return xs
	}
	encode := func(h *QuantileHistogram) []byte {
		t.Helper()
		b, err := h.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for round := range 20 {
		var dirty QuantileHistogram
		dirty.AddSlice(sample(500, 1e-3*float64(round+1)))
		counts := dirty.counts
		dirty.Release()
		if *counts != [QuantileBins]uint32{} {
			t.Fatalf("round %d: Release pooled a count array it did not clear", round)
		}
		if dirty.N() != 0 || dirty.counts != nil {
			t.Fatalf("round %d: a released histogram is not empty", round)
		}
		xs := sample(48, 1e-4)
		reused := QuantileHistogram{counts: counts}
		reused.AddSlice(xs)
		fresh := QuantileHistogram{counts: new([QuantileBins]uint32)}
		fresh.AddSlice(xs)
		want := encode(&fresh)
		if got := encode(&reused); !bytes.Equal(got, want) {
			t.Fatalf("round %d: histogram on a reused array encodes differently", round)
		}
		for _, p := range []float64{0, 0.25, 0.5, 0.75, 1} {
			if math.Float64bits(reused.Quantile(p)) != math.Float64bits(fresh.Quantile(p)) {
				t.Fatalf("round %d: quantile %v differs on a reused array", round, p)
			}
		}
		reused.Release()
		var decoded QuantileHistogram
		if err := decoded.UnmarshalBinary(want); err != nil {
			t.Fatal(err)
		}
		if got := encode(&decoded); !bytes.Equal(got, want) {
			t.Fatalf("round %d: histogram decoded into a pooled array re-encodes differently", round)
		}
		decoded.Release()
	}
}
