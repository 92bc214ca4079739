package analysis

import (
	"maps"
	"slices"

	"earlybird/internal/stats"
	"earlybird/internal/stats/normality"
	"earlybird/internal/trace"
)

// iterPartial is one trial's exact contribution to one application
// iteration: count, sum and max reconstruct the reclaimable-time and
// idle-ratio metrics exactly once folded across trials.
type iterPartial struct {
	n   int64
	sum float64
	max float64
}

// trialAccum is one trial's share of a MetricsAccumulator: the exact
// process-level sums plus the per-iteration exact partials. Keeping
// state at trial granularity is what makes federation sound — a trial's
// partial is a deterministic function of the samples alone, so any
// partition of the trial space across shards reproduces the same set of
// trialAccums, and Finalize's fixed-order fold rebuilds identical
// totals.
type trialAccum struct {
	nProc     int64
	medianSum float64
	reclSum   float64
	ratioSum  float64
	laggards  int64
	iters     map[int]*iterPartial
}

// add folds o into ta: the scalar sums, then each iteration's partial.
func (ta *trialAccum) add(o *trialAccum) {
	ta.nProc += o.nProc
	ta.medianSum += o.medianSum
	ta.reclSum += o.reclSum
	ta.ratioSum += o.ratioSum
	ta.laggards += o.laggards
	for iter, op := range o.iters {
		ta.addIter(iter, *op)
	}
}

// addIter folds one application iteration's partial into ta.
func (ta *trialAccum) addIter(iter int, o iterPartial) {
	ip := ta.iters[iter]
	if ip == nil {
		// Copy into a fresh partial here, not &o: taking o's address
		// would move every call's argument to the heap.
		ip = new(iterPartial)
		*ip = o
		ta.iters[iter] = ip
		return
	}
	if o.max > ip.max {
		ip.max = o.max
	}
	ip.n += o.n
	ip.sum += o.sum
}

// MetricsAccumulator computes AppMetrics in a single pass over
// process-iteration blocks, holding O(trials x iterations) partial state
// instead of the O(samples) a materialised dataset needs.
// Per-process-iteration quantities (mean median, laggard fraction,
// reclaimable time, idle ratio) are exact: each block is complete when
// observed, so its median is computed directly. Application-iteration
// reclaimable time and idle ratio are exact too — they reduce to
// per-iteration count/sum/max — and only the iteration IQR statistics
// are estimated, by a per-iteration stats.QuantileHistogram (within one
// bin of the exact quartiles; EXPERIMENTS.md has the measured error).
//
// Accumulators are mergeable: a parallel fill keeps one per worker (or a
// federated sweep one per trial shard) and combines them with Merge, in
// any order. State is kept per trial and Finalize folds trials in
// ascending order, so when each trial's blocks were folded into exactly
// one accumulator in cursor order — as in cursor passes, the fleet's
// trial-sharded execution and StreamStudy, which summarises blocks
// where they are filled and folds each trial's summaries in cursor
// order (SummarizeBlock, FoldBlock) — every output is bit-identical
// regardless of how trials were partitioned or merged. The IQR fields
// are too, under any partition at all: a histogram's counts depend only
// on the set of samples it saw.
// An accumulator is not safe for concurrent use.
type MetricsAccumulator struct {
	app       string
	threshold float64
	solo      *Kernel // ObserveBlock's kernel, made on first use

	trials map[int]*trialAccum
	iqrs   map[int]*stats.QuantileHistogram // per application iteration
}

// NewMetricsAccumulator returns an empty accumulator for the given
// application name and laggard threshold (seconds).
func NewMetricsAccumulator(app string, laggardThreshold float64) *MetricsAccumulator {
	return &MetricsAccumulator{
		app:       app,
		threshold: laggardThreshold,
		trials:    map[int]*trialAccum{},
		iqrs:      map[int]*stats.QuantileHistogram{},
	}
}

// App returns the application name the accumulator was created for.
func (a *MetricsAccumulator) App() string { return a.app }

// LaggardThreshold returns the laggard rule (seconds) the accumulator
// classifies with.
func (a *MetricsAccumulator) LaggardThreshold() float64 { return a.threshold }

// Blocks returns how many process-iteration blocks have been observed.
func (a *MetricsAccumulator) Blocks() int64 {
	var n int64
	for _, ta := range a.trials {
		n += ta.nProc
	}
	return n
}

// ObserveBlock implements cluster.BlockObserver for a caller that feeds
// this accumulator alone: an adapter over a private block Kernel. Paths
// that fold several consumers per block share one Kernel instead.
func (a *MetricsAccumulator) ObserveBlock(trial, rank, iter int, xs []float64) {
	if a.solo == nil {
		a.solo = NewKernel(a)
	}
	a.solo.ObserveBlock(trial, rank, iter, xs)
}

// ObserveSorted implements SortedObserver: it folds one complete process
// iteration, given in original order and sorted — its BlockSummary into
// the trial's sums (FoldBlock) and its samples into the iteration's
// histogram (AddIterationSamples).
func (a *MetricsAccumulator) ObserveSorted(trial, _, iter int, xs, sorted []float64) {
	if len(xs) == 0 {
		return
	}
	a.FoldBlock(trial, iter, SummarizeBlock(xs, sorted))
	a.AddIterationSamples(iter, sorted)
}

// BlockSummary is what a trial's sums read of one process iteration:
// its size, its sum in block order, its max and its median.
type BlockSummary struct {
	N                int
	Sum, Max, Median float64
}

// SummarizeBlock summarises one non-empty process iteration, given in
// original order and sorted: the sum accumulates in the original block
// order, the max is the sorted tail and the median reads the sorted
// view.
func SummarizeBlock(xs, sorted []float64) BlockSummary {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return BlockSummary{N: len(xs), Sum: sum, Max: sorted[len(sorted)-1], Median: stats.PercentileSorted(sorted, 50)}
}

// FoldBlock folds one process iteration's summary into the trial's sums
// and the iteration's exact partial. The sums are floating point, so a
// trial's bits depend on the order its blocks fold in; every path folds
// them in cursor order. ObserveSorted is FoldBlock plus
// AddIterationSamples; a caller that summarises blocks out of order
// folds them later, in order, and adds the samples itself.
func (a *MetricsAccumulator) FoldBlock(trial, iter int, b BlockSummary) {
	ta := a.trials[trial]
	if ta == nil {
		ta = &trialAccum{iters: map[int]*iterPartial{}}
		a.trials[trial] = ta
	}

	// Process-iteration level: exact, the block is complete.
	recl := float64(b.N)*b.Max - b.Sum
	ta.nProc++
	ta.medianSum += b.Median
	ta.reclSum += recl
	if b.Max > 0 {
		ta.ratioSum += recl / (b.Max * float64(b.N))
	}
	if b.Max-b.Median > a.threshold {
		ta.laggards++
	}

	// Application-iteration level: count/sum/max are exact per-trial
	// partials.
	ta.addIter(iter, iterPartial{n: int64(b.N), sum: b.Sum, max: b.Max})
}

// AddIterationSamples adds a sorted block to application iteration
// iter's histogram, the estimator of the IQR fields. Histograms depend
// only on the set of samples they see, so blocks may arrive in any
// order and from any trial.
func (a *MetricsAccumulator) AddIterationSamples(iter int, sorted []float64) {
	h := a.iqrs[iter]
	if h == nil {
		h = new(stats.QuantileHistogram)
		a.iqrs[iter] = h
	}
	h.AddSorted(sorted)
}

// SampleHistogram returns a new histogram of every sample added to the
// iteration histograms: their merge, which holds what one histogram fed
// every sample would, since counts depend only on the set of samples.
func (a *MetricsAccumulator) SampleHistogram() *stats.QuantileHistogram {
	h := new(stats.QuantileHistogram)
	for _, ih := range a.iqrs {
		h.Merge(ih)
	}
	return h
}

// Merge folds another accumulator (for the same application and
// threshold) into this one. o must not be used afterwards. Trials held
// by only one side are adopted bit-exactly; trials present in both (a
// scheduling-dependent worker split) combine additively.
func (a *MetricsAccumulator) Merge(o *MetricsAccumulator) {
	if o == nil {
		return
	}
	for trial, ot := range o.trials {
		ta := a.trials[trial]
		if ta == nil {
			a.trials[trial] = ot
			continue
		}
		ta.add(ot)
	}
	for iter, oh := range o.iqrs {
		h := a.iqrs[iter]
		if h == nil {
			a.iqrs[iter] = oh
			continue
		}
		h.Merge(oh)
	}
}

// Finalize computes the AppMetrics from the accumulated state, folding
// trials in ascending order so the result depends only on what was
// observed, never on how observations were partitioned or merged.
func (a *MetricsAccumulator) Finalize() AppMetrics {
	m := AppMetrics{App: a.app}

	tot := trialAccum{iters: map[int]*iterPartial{}}
	for _, t := range slices.Sorted(maps.Keys(a.trials)) {
		tot.add(a.trials[t])
	}
	if n := float64(tot.nProc); n > 0 {
		m.MeanMedianSec = tot.medianSum / n
		m.LaggardFraction = float64(tot.laggards) / n
		m.AvgReclaimableProcSec = tot.reclSum / n
		m.IdleRatioProc = tot.ratioSum / n
	}

	iters := make([]int, 0, len(tot.iters))
	for iter, it := range tot.iters {
		if it.n > 0 {
			iters = append(iters, iter)
		}
	}
	slices.Sort(iters)
	reclAppSum, ratioAppSum, iqrSum := 0.0, 0.0, 0.0
	iqrMax := 0.0
	for _, iter := range iters {
		it := tot.iters[iter]
		recl := float64(it.n)*it.max - it.sum
		reclAppSum += recl
		if it.max > 0 {
			ratioAppSum += recl / (it.max * float64(it.n))
		}
		var iqr float64
		if h := a.iqrs[iter]; h != nil {
			iqr = h.IQR()
		}
		iqrSum += iqr
		if iqr > iqrMax {
			iqrMax = iqr
		}
	}
	if len(iters) > 0 {
		m.AvgReclaimableAppIterSec = reclAppSum / float64(len(iters))
		m.IdleRatioAppIter = ratioAppSum / float64(len(iters))
		m.IQRMeanSec = iqrSum / float64(len(iters))
		m.IQRMaxSec = iqrMax
	}
	return m
}

// ComputeMetricsStreaming derives AppMetrics from a process-iteration
// cursor in a single bounded-memory pass — the streaming counterpart of
// ComputeMetrics. All quantities are exact except the iteration IQR
// statistics, which carry the quantile histogram's bin-width tolerance.
func ComputeMetricsStreaming(app string, cur *trace.Cursor, laggardThreshold float64) AppMetrics {
	acc := NewMetricsAccumulator(app, laggardThreshold)
	NewKernel(acc).ObserveCursor(cur, 0)
	return acc.Finalize()
}

// Table1Accumulator computes the paper's Table 1 row — process-iteration
// normality pass rates — in a single pass over blocks. The battery runs
// per complete block, so streaming results are exactly the materialised
// ones. Mergeable like MetricsAccumulator; not safe for concurrent use.
type Table1Accumulator struct {
	app      string
	verdicts normality.Verdicts
	total    int
	passed   [3]int
	solo     *Kernel // ObserveBlock's kernel, made on first use
}

// NewTable1Accumulator returns an empty accumulator at significance
// alpha.
func NewTable1Accumulator(app string, alpha float64) *Table1Accumulator {
	return &Table1Accumulator{app: app, verdicts: normality.NewVerdicts(alpha)}
}

// ObserveBlock implements cluster.BlockObserver for a caller that feeds
// this accumulator alone: an adapter over a private block Kernel.
func (a *Table1Accumulator) ObserveBlock(trial, rank, iter int, xs []float64) {
	if a.solo == nil {
		a.solo = NewKernel(a)
	}
	a.solo.ObserveBlock(trial, rank, iter, xs)
}

// ObserveSorted implements SortedObserver: it runs the three-test
// battery on one complete process iteration, given in original order
// and sorted.
func (a *Table1Accumulator) ObserveSorted(_, _, _ int, xs, sorted []float64) {
	passed := a.verdicts.Passed(xs, sorted)
	a.total++
	for _, t := range normality.Tests {
		if passed[t] {
			a.passed[t]++
		}
	}
}

// Merge folds another accumulator into this one.
func (a *Table1Accumulator) Merge(o *Table1Accumulator) {
	if o == nil {
		return
	}
	a.total += o.total
	for i := range a.passed {
		a.passed[i] += o.passed[i]
	}
}

// Finalize computes the Table 1 row.
func (a *Table1Accumulator) Finalize() Table1 {
	t1 := Table1{App: a.app}
	if a.total == 0 {
		return t1
	}
	for _, t := range normality.Tests {
		t1.PassRates[t] = float64(a.passed[t]) / float64(a.total)
	}
	return t1
}
