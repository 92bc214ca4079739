// Package stats implements the descriptive statistics, histogram and
// distribution machinery used throughout the thread-timing study, in two
// complementary forms.
//
// Exact, materialised: sample moments, percentiles and inter-quartile
// ranges (Figures 4, 6 and 8 of the paper), fixed-width histograms
// (Figures 3, 5, 7 and 9), the empirical CDF, and the standard normal
// distribution functions required by the normality tests in the
// stats/normality subpackage. All functions operate on float64 slices
// and, unless stated otherwise, do not mutate their input.
//
// Streaming: one-pass, constant-memory, mergeable accumulators for
// studies too large to materialise — Moments (first four central moments
// plus min/max, Welford/Pébay updates, exact up to floating-point
// rounding) and QuantileHistogram (a collapsing uniform histogram whose
// state depends only on the set of samples, so its merge is exact and
// its percentiles, within one bin of the exact ones, are the same bits
// however the samples were ordered or partitioned). Both merge, so a
// parallel fill keeps one accumulator per worker and combines at the
// end; these back earlybird.StreamStudy, the serve layer's sweep
// endpoint and the fleet's shard merge.
package stats
