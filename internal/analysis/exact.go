package analysis

import (
	"math"

	"earlybird/internal/stats"
	"earlybird/internal/stats/normality"
	"earlybird/internal/trace"
)

// PassOptions selects the optional per-block work of RunExactPass.
type PassOptions struct {
	// Battery runs the three normality tests on every block at Alpha;
	// the counts are read back through ExactPass.Normality and Table1.
	Battery bool
	Alpha   float64
	// Sorted, when non-nil, receives every block's ascending copy in pass
	// order, for consumers such as partcomm.StrategyAccumulator's
	// ObserveSorted. The slice is scratch the next block overwrites: the
	// callee must not modify or retain it.
	Sorted func(sorted []float64)
}

// ExactPass is what one exact pass over a dataset's process iterations
// yields (RunExactPass): the per-block sums behind the Section 4.2
// process-level metrics, every block's laggard magnitude, and optionally
// the Table 1 normality counts. The laggard statistics at any threshold
// and the full AppMetrics are read back from it without touching the
// blocks again. It is the block kernel's consumer on the exact path.
type ExactPass struct {
	d                *trace.Dataset
	fromIter, toIter int
	opts             PassOptions

	medianSum, reclSum, ratioSum float64
	// mags[k] is max - median of the k-th block in pass order.
	mags      []float64
	normality *NormalitySummary
	verdicts  normality.Verdicts
}

// RunExactPass walks the process iterations of d with iteration index in
// [fromIter, toIter), in (trial, rank, iteration) order, through one
// block Kernel: each block is copied and sorted once, and that sorted
// copy yields the median, the maximum and so the laggard magnitude, and
// feeds Shapiro-Wilk, Anderson-Darling and opts.Sorted. Every sum —
// reclaimable time, D'Agostino's moments — still runs over the block in
// its original sample order, so each statistic is bit-identical to the
// function that computes it alone (ReclaimableTime, IdleRatio,
// stats.Median, normality.Battery).
func RunExactPass(d *trace.Dataset, fromIter, toIter int, opts PassOptions) *ExactPass {
	p := &ExactPass{
		d: d, fromIter: fromIter, toIter: toIter, opts: opts,
		mags: make([]float64, 0, d.Trials*d.Ranks*max(toIter-fromIter, 0)),
	}
	if opts.Battery {
		p.normality = &NormalitySummary{Level: "process iteration"}
		p.verdicts = normality.NewVerdicts(opts.Alpha)
	}
	k := NewKernel(p)
	for t := 0; t < d.Trials; t++ {
		for r := 0; r < d.Ranks; r++ {
			for i := fromIter; i < toIter; i++ {
				k.ObserveBlock(t, r, i, d.Times[t][r][i])
			}
		}
	}
	return p
}

// ObserveSorted implements SortedObserver: it folds one block.
func (p *ExactPass) ObserveSorted(_, _, _ int, xs, sorted []float64) {
	med, max := stats.PercentileSorted(sorted, 50), math.NaN()
	if n := len(sorted); n > 0 {
		max = sorted[n-1]
	}
	recl, ratio := reclaimable(xs, max)
	p.medianSum += med
	p.reclSum += recl
	p.ratioSum += ratio
	p.mags = append(p.mags, max-med)
	if s := p.normality; s != nil {
		passed := p.verdicts.Passed(xs, sorted)
		for _, t := range normality.Tests {
			if passed[t] {
				s.Passed[t]++
				s.PassedSets[t] = append(s.PassedSets[t], s.Total)
			}
		}
		s.Total++
	}
	if p.opts.Sorted != nil {
		p.opts.Sorted(sorted)
	}
}

// Laggards classifies the observed process iterations with the given
// threshold: a scan over the stored magnitudes, equal to
// LaggardsInRange over the same iterations.
func (p *ExactPass) Laggards(threshold float64) LaggardStats {
	st := LaggardStats{Total: len(p.mags)}
	magSum := 0.0
	for _, mag := range p.mags {
		if mag > threshold {
			st.WithLaggard++
			magSum += mag
		}
	}
	if st.Total > 0 {
		st.Fraction = float64(st.WithLaggard) / float64(st.Total)
	}
	if st.WithLaggard > 0 {
		st.MeanMagnitudeSec = magSum / float64(st.WithLaggard)
	}
	return st
}

// Normality returns the process-iteration normality summary, or nil when
// the pass ran without the battery.
func (p *ExactPass) Normality() *NormalitySummary { return p.normality }

// Table1 returns the Table 1 row of the pass; all pass rates are zero
// when it ran without the battery.
func (p *ExactPass) Table1() Table1 {
	t1 := Table1{App: p.d.App}
	if p.normality != nil {
		for _, t := range normality.Tests {
			t1.PassRates[t] = p.normality.PassRate(t)
		}
	}
	return t1
}

// Metrics assembles the Section 4.2 AppMetrics with the given laggard
// threshold: the process-level fields from the pass, the
// application-iteration fields from one gather per iteration into a
// reused buffer, summed in IterationSamples order; the IQR then selects
// its four order statistics in place (stats.IQRSelect) instead of
// sorting the iteration.
func (p *ExactPass) Metrics(laggardThreshold float64) AppMetrics {
	m := AppMetrics{App: p.d.App}
	if n := len(p.mags); n > 0 {
		m.MeanMedianSec = p.medianSum / float64(n)
		m.LaggardFraction = p.Laggards(laggardThreshold).Fraction
		m.AvgReclaimableProcSec = p.reclSum / float64(n)
		m.IdleRatioProc = p.ratioSum / float64(n)
	}

	d := p.d
	nIter := 0
	reclAppSum, ratioAppSum, iqrSum := 0.0, 0.0, 0.0
	iqrMax := 0.0
	xs := make([]float64, 0, d.Trials*d.Ranks*d.Threads)
	for i := p.fromIter; i < p.toIter; i++ {
		xs = xs[:0]
		for _, trial := range d.Times {
			for _, rank := range trial {
				xs = append(xs, rank[i]...)
			}
		}
		nIter++
		recl, ratio := reclaimable(xs, stats.Max(xs))
		reclAppSum += recl
		ratioAppSum += ratio
		iqr := stats.IQRSelect(xs)
		iqrSum += iqr
		if iqr > iqrMax {
			iqrMax = iqr
		}
	}
	if nIter > 0 {
		m.AvgReclaimableAppIterSec = reclAppSum / float64(nIter)
		m.IdleRatioAppIter = ratioAppSum / float64(nIter)
		m.IQRMeanSec = iqrSum / float64(nIter)
		m.IQRMaxSec = iqrMax
	}
	return m
}

// reclaimable returns ReclaimableTime(xs) and IdleRatio(xs) for a sample
// whose maximum is max, summing in xs's order.
func reclaimable(xs []float64, max float64) (recl, ratio float64) {
	for _, x := range xs {
		recl += max - x
	}
	if max <= 0 {
		return recl, 0
	}
	return recl, recl / (max * float64(len(xs)))
}
