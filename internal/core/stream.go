package core

import (
	"fmt"
	"sync"

	"earlybird/internal/analysis"
	"earlybird/internal/cluster"
	"earlybird/internal/stats"
)

// StreamResult is the outcome of a streaming study: the Section 4.2
// scalar metrics, the Table 1 normality row, and application-level sample
// moments and quantiles — everything computed online while the samples
// were produced, none of it requiring the dataset to be held in memory.
// Live sample memory during the run is O(workers x threads); accumulator
// state is O(workers x iterations) — a 2 KiB histogram per iteration per
// fill worker — plus a 32-byte summary per block of the trials still
// filling.
//
// Exactness: Table1 and all process-level metrics are exactly what the
// materialised pipeline computes, and the moments are up to rounding;
// the iteration IQR statistics (IQRMeanSec, IQRMaxSec) and the
// percentile estimates of Summary come from quantile histograms, within
// one bin (at most 2/511 of the range they cover) of the exact values.
// Every field is the same bits at any worker count, and the Metrics and
// Table1 are the bits of the same cell's /v1/sweep row, local or
// federated, under every policy.
type StreamResult struct {
	App      string
	Geometry cluster.Config
	// Metrics is the Section 4.2 row (IQR fields histogram-estimated).
	Metrics analysis.AppMetrics
	// Table1 is the process-iteration normality row (exact).
	Table1 analysis.Table1
	// Moments holds the application-level sample moments (exact).
	Moments stats.Moments
	// Quantiles holds the application-level arrival distribution.
	Quantiles *stats.QuantileHistogram
}

// Samples returns the total number of samples the study produced.
func (r *StreamResult) Samples() int64 { return r.Moments.N() }

// Summary assembles the application-level descriptive statistics from the
// streaming accumulators.
func (r *StreamResult) Summary() stats.Summary {
	return stats.StreamSummary(&r.Moments, r.Quantiles)
}

// String renders the headline streaming results.
func (r *StreamResult) String() string {
	return fmt.Sprintf("streamed %s: %d samples\n%v\n%v",
		r.App, r.Samples(), r.Metrics, r.Table1)
}

// streamRun executes the study online on up to workers fill goroutines
// (<= 0: one per CPU), each with its own streamObserver, as
// cluster.RunStream stripes the fill over (trial, rank) for a static
// policy and over trials for a rebalancing one. The order-free state —
// iteration histograms, Table 1 counts, the application-level histogram
// — accumulates per worker and merges exactly at the end. A trial's
// floating-point sums and moments depend on the order they fold in, so
// each block is summarised where it is observed, into its slot of its
// trial's table, and when a trial's last rank completes the table folds
// in cursor order (rank by rank, each rank's iterations in turn). So
// every result is the same bits at any worker count, and the Metrics
// and Table1 are the bits of a cursor pass over the same cell — its
// /v1/sweep row, local or federated.
func streamRun(opts Options, withTable1, withSummary bool, workers int) (*StreamResult, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	geom := opts.Geometry
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	app := opts.Model.Name()
	f := &trialFolder{
		geom:    geom,
		metrics: analysis.NewMetricsAccumulator(app, opts.Policy.LaggardThresholdSec),
		open:    map[int]*openTrial{},
	}
	if withSummary {
		f.moments = make([]stats.Moments, geom.Trials)
	}
	newObs := func() cluster.BlockObserver {
		o := &streamObserver{
			folder: f,
			hists:  analysis.NewMetricsAccumulator(app, opts.Policy.LaggardThresholdSec),
		}
		consumers := []analysis.SortedObserver{o}
		if withTable1 {
			o.table1 = analysis.NewTable1Accumulator(app, opts.Policy.Alpha)
			consumers = append(consumers, o.table1)
		}
		if withSummary {
			o.hist = new(stats.QuantileHistogram)
		}
		o.kernel = analysis.NewKernel(consumers...)
		return o
	}
	observers, err := cluster.RunStream(opts.Model, geom, opts.Policy.DLB, workers, nil, newObs, nil)
	if err != nil {
		return nil, err
	}
	root := observers[0].(*streamObserver)
	for _, obs := range observers[1:] {
		o := obs.(*streamObserver)
		root.hists.Merge(o.hists)
		if withTable1 {
			root.table1.Merge(o.table1)
		}
		if withSummary {
			root.hist.Merge(o.hist)
		}
	}
	f.metrics.Merge(root.hists)
	res := &StreamResult{
		App:      app,
		Geometry: geom,
		Metrics:  f.metrics.Finalize(),
	}
	if withTable1 {
		res.Table1 = root.table1.Finalize()
	}
	if withSummary {
		for t := range f.moments {
			res.Moments.Merge(&f.moments[t])
		}
		res.Quantiles = root.hist
	}
	return res, nil
}

// trialFolder holds the trials whose blocks are still arriving and folds
// each, once complete, into the study's metrics. It is shared by the
// fill workers; mu guards open, metrics and moments.
type trialFolder struct {
	geom    cluster.Config
	mu      sync.Mutex
	open    map[int]*openTrial
	metrics *analysis.MetricsAccumulator
	moments []stats.Moments // per trial, when the summary is kept
}

// openTrial is one trial in progress: a summary slot per block and the
// moments of each rank's samples, in cursor order. Each (trial, rank) is
// filled by one worker, so workers write disjoint slots.
type openTrial struct {
	blocks  []analysis.BlockSummary // rank-major
	moments []stats.Moments         // per rank
	left    int                     // ranks not yet complete
}

// trial returns trial t's table, opening it on its first block.
func (f *trialFolder) trial(t int) *openTrial {
	f.mu.Lock()
	defer f.mu.Unlock()
	ot := f.open[t]
	if ot == nil {
		ot = &openTrial{blocks: make([]analysis.BlockSummary, f.geom.Ranks*f.geom.Iterations), left: f.geom.Ranks}
		if f.moments != nil {
			ot.moments = make([]stats.Moments, f.geom.Ranks)
		}
		f.open[t] = ot
	}
	return ot
}

// rankDone records that trial t's rank has observed its last block; the
// trial's last rank folds it, in cursor order, and closes it.
func (f *trialFolder) rankDone(t int, ot *openTrial) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if ot.left--; ot.left > 0 {
		return
	}
	iters := f.geom.Iterations
	for i, b := range ot.blocks {
		f.metrics.FoldBlock(t, i%iters, b)
	}
	for r := range ot.moments {
		f.moments[t].Merge(&ot.moments[r])
	}
	delete(f.open, t)
}

// streamObserver is one fill worker's share of a streaming study. Its
// block kernel sorts each block once for itself and the Table 1
// accumulator; it summarises the block into its trial's table, adds it
// to the worker's iteration histograms and, for the summary, to its
// rank's moments (original order) and the worker's histogram.
type streamObserver struct {
	folder *trialFolder
	kernel *analysis.Kernel
	hists  *analysis.MetricsAccumulator // iteration histograms only
	table1 *analysis.Table1Accumulator
	hist   *stats.QuantileHistogram

	cur      *openTrial // the trial of the last block, and its index
	curTrial int
}

func (o *streamObserver) ObserveBlock(trial, rank, iter int, xs []float64) {
	o.kernel.ObserveBlock(trial, rank, iter, xs)
}

func (o *streamObserver) ObserveSorted(trial, rank, iter int, xs, sorted []float64) {
	if o.cur == nil || o.curTrial != trial {
		o.cur, o.curTrial = o.folder.trial(trial), trial
	}
	g := o.folder.geom
	o.cur.blocks[rank*g.Iterations+iter] = analysis.SummarizeBlock(xs, sorted)
	o.hists.AddIterationSamples(iter, sorted)
	if o.hist != nil {
		o.cur.moments[rank].AddSlice(xs)
		o.hist.AddSorted(sorted)
	}
	if iter == g.Iterations-1 {
		o.folder.rankDone(trial, o.cur)
	}
}

// StreamStudy runs the configured study in streaming mode: samples feed
// mergeable accumulators the moment they are produced and are then
// discarded, so studies at geometries far beyond the paper's (see
// cluster.HugeConfig) run in bounded memory. It computes the Section 4.2
// metrics, the Table 1 normality row and the application-level summary.
func StreamStudy(opts Options) (*StreamResult, error) {
	return streamRun(opts, true, true, 0)
}

// StreamMetrics runs the configured study in streaming mode and computes
// only the Section 4.2 scalar metrics — the cheapest full-study analysis
// path, and the direct streaming counterpart of
// NewStudy(opts).Metrics().
func StreamMetrics(opts Options) (analysis.AppMetrics, error) {
	res, err := streamRun(opts, false, false, 0)
	if err != nil {
		return analysis.AppMetrics{}, err
	}
	return res.Metrics, nil
}
