package core

import (
	"fmt"
	"runtime"
	"sync"
	"unsafe"

	"earlybird/internal/analysis"
	"earlybird/internal/cluster"
	"earlybird/internal/dlb"
	"earlybird/internal/stats"
	"earlybird/internal/workload"
)

// StreamResult is the outcome of a streaming study: the Section 4.2
// scalar metrics, the Table 1 normality row, and application-level sample
// moments and quantiles — everything computed online while the samples
// were produced, none of it requiring the dataset to be held in memory.
// Live sample memory during the run is O(workers x threads); accumulator
// state is a 2 KiB histogram per iteration per fill worker plus a
// 32-byte summary per block of the trials still filling, with as many
// workers as keep that within streamStateBudget, whatever the CPU count.
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

// streamStateBudget bounds every fold's extra state (foldWorkers): a
// fill worker costs about 0.4 MB at the paper's geometry, so all 80
// tasks get one; at HugeConfig an extra worker costs about 10 MB and a
// trial table 5 MB, so two workers fit, whatever the CPU count.
const streamStateBudget = 40 << 20

// streamRun folds the whole study (foldTrials) on up to workers fill
// goroutines (<= 0: GOMAXPROCS). The application-level quantiles are
// the merge of the iteration histograms the metrics already keep: a
// histogram depends only on the samples it saw.
func streamRun(opts Options, withTable1, withSummary bool, workers int) (*StreamResult, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	app, geom := opts.Model.Name(), opts.Geometry
	metrics := analysis.NewMetricsAccumulator(app, opts.Policy.LaggardThresholdSec)
	var table1 *analysis.Table1Accumulator
	if withTable1 {
		table1 = analysis.NewTable1Accumulator(app, opts.Policy.Alpha)
	}
	res := &StreamResult{App: app, Geometry: geom}
	var moments *stats.Moments
	if withSummary {
		moments = &res.Moments
	}
	if err := foldTrials(opts.Model, geom, opts.Policy.DLB, 0, geom.Trials, workers, metrics, table1, moments, nil); err != nil {
		return nil, err
	}
	if withSummary {
		res.Quantiles = metrics.SampleHistogram()
	}
	res.Metrics = metrics.Finalize()
	if withTable1 {
		res.Table1 = table1.Finalize()
	}
	return res, nil
}

// FoldTrials is the one streamed fold over a trial range: it fills
// trials [lo, hi) of geom from model under policy and folds each block,
// under its absolute trial, into metrics and a non-nil table1, to the
// bits of a block kernel over a cursor of those trials; no sample
// outlives its block. It fills on the most workers, up to GOMAXPROCS,
// whose extra state fits streamStateBudget (foldWorkers) and refuses,
// before any fill, a rebalanced trial whose block table alone is over
// it. A non-nil progress sees the fill.
func FoldTrials(model workload.Model, geom cluster.Config, policy dlb.Spec, lo, hi int,
	metrics *analysis.MetricsAccumulator, table1 *analysis.Table1Accumulator, progress cluster.ProgressSink) error {
	return foldTrials(model, geom, policy, lo, hi, 0, metrics, table1, nil, progress)
}

// foldTrials is FoldTrials on up to workers (<= 0: GOMAXPROCS), adding
// the application-level sample moments to a non-nil moments. Each fill
// worker (cluster.RunStream) keeps its own order-free state — iteration
// histograms and Table 1 counts — merged exactly at the end. A trial's
// floating-point sums and moments depend on the order they fold in: one
// static worker sees the cursor's order and folds each block as it
// comes; otherwise each block's summary waits in its trial's table,
// which folds in cursor order once the trial's last rank completes. So
// the bits are the same at any worker count.
func foldTrials(model workload.Model, geom cluster.Config, policy dlb.Spec, lo, hi, workers int,
	metrics *analysis.MetricsAccumulator, table1 *analysis.Table1Accumulator, moments *stats.Moments, progress cluster.ProgressSink) error {
	if err := geom.Validate(); err != nil {
		return err
	}
	if lo < 0 || hi <= lo || hi > geom.Trials {
		return fmt.Errorf("core: trial range [%d, %d) outside the geometry's %d trials", lo, hi, geom.Trials)
	}
	run := geom
	run.Trials = hi - lo
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	static := policy.IsStatic()
	if workers = foldWorkers(run, static, workers); workers == 0 {
		return fmt.Errorf("core: a rebalanced trial's block table is over the %d-byte state budget", streamStateBudget)
	}
	f := &trialFolder{
		geom: run, lo: lo, tables: !static || workers > 1, open: map[int]*openTrial{},
		sums: analysis.NewMetricsAccumulator(metrics.App(), metrics.LaggardThreshold()),
	}
	if moments != nil {
		f.moments = make([]stats.Moments, run.Trials)
	}
	newObs := func() cluster.BlockObserver {
		o := &streamObserver{folder: f, hists: analysis.NewMetricsAccumulator(metrics.App(), metrics.LaggardThreshold())}
		o.kernel = analysis.NewKernel(o)
		if table1 != nil {
			o.table1 = analysis.NewTable1Accumulator(table1.App(), table1.Alpha())
			o.kernel = analysis.NewKernel(o, o.table1)
		}
		return o
	}
	observers, err := cluster.RunStream(cluster.ShiftTrials(model, lo), run, policy, workers, nil, newObs, progress)
	if err != nil {
		return err
	}
	for _, obs := range observers {
		o := obs.(*streamObserver)
		metrics.Merge(o.hists)
		if table1 != nil {
			table1.Merge(o.table1)
		}
	}
	metrics.Merge(f.sums)
	for t := range f.moments {
		moments.Merge(&f.moments[t])
	}
	return nil
}

// foldWorkers returns the most fill workers, up to requested and the
// fill's tasks ((trial, rank) stripes, or trials when rebalancing), whose
// extra state fits streamStateBudget: a histogram set per worker past
// the first plus the trial tables open at once. One static worker sees
// the cursor's order and needs no table; more hold one each plus one
// per stripe boundary, the trial it may split. Rebalancing workers need
// a table each: 0 means one is over the budget.
func foldWorkers(geom cluster.Config, static bool, requested int) int {
	tasks := geom.Trials
	if static {
		tasks = cluster.Config{Trials: geom.Trials, Ranks: geom.Ranks, Iterations: 1, Threads: 1}.Samples()
	}
	histSet := float64(geom.Iterations) * float64(unsafe.Sizeof(stats.QuantileHistogram{})+stats.QuantileBins*4)
	table := float64(geom.Ranks) * float64(geom.Iterations) * float64(unsafe.Sizeof(analysis.BlockSummary{}))
	for w := min(requested, tasks); w >= 1; w-- {
		open := 0
		switch {
		case !static:
			open = w
		case w > 1:
			open = min(geom.Trials, 2*w-1)
		}
		if float64(w-1)*histSet+float64(open)*table <= streamStateBudget {
			return w
		}
	}
	return 0
}

// trialFolder holds the trials whose blocks are still arriving and folds
// each, once complete, into sums. It is shared by the fill workers; mu
// guards open, moments and, when tables are kept, sums.
type trialFolder struct {
	geom    cluster.Config // the fill's: trials [0, hi-lo)
	lo      int            // the first trial's absolute index
	tables  bool           // else blocks fold into sums as they come
	mu      sync.Mutex
	open    map[int]*openTrial
	sums    *analysis.MetricsAccumulator // the trials' sums
	moments []stats.Moments              // per trial, when the summary is kept
}

// openTrial is one trial in progress: a summary slot per block and the
// moments of each rank. Each (trial, rank) is one worker's, so workers
// write disjoint slots.
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
		ot = &openTrial{left: f.geom.Ranks}
		if f.tables {
			ot.blocks = make([]analysis.BlockSummary, f.geom.Ranks*f.geom.Iterations)
		}
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
		f.sums.FoldBlock(f.lo+t, i%iters, b)
	}
	for r := range ot.moments {
		f.moments[t].Merge(&ot.moments[r])
	}
	delete(f.open, t)
}

// streamObserver is one fill worker's share of a fold. Its block kernel
// sorts each block once for itself and the Table 1 accumulator; it adds
// the block to the worker's histograms and its summary to the trial's
// sums, at once on a table-free fold, else through the trial's table.
type streamObserver struct {
	folder *trialFolder
	kernel *analysis.Kernel
	hists  *analysis.MetricsAccumulator // iteration histograms only
	table1 *analysis.Table1Accumulator

	cur      *openTrial // the trial of the last block, and its index
	curTrial int
}

func (o *streamObserver) ObserveBlock(trial, rank, iter int, xs []float64) {
	o.kernel.ObserveBlock(trial, rank, iter, xs)
}

func (o *streamObserver) ObserveSorted(trial, rank, iter int, xs, sorted []float64) {
	f := o.folder
	if o.cur == nil || o.curTrial != trial {
		o.cur, o.curTrial = f.trial(trial), trial
	}
	o.hists.AddIterationSamples(iter, sorted)
	if b := analysis.SummarizeBlock(xs, sorted); f.tables {
		o.cur.blocks[rank*f.geom.Iterations+iter] = b
	} else {
		f.sums.FoldBlock(f.lo+trial, iter, b)
	}
	if f.moments != nil {
		o.cur.moments[rank].AddSlice(xs)
	}
	if iter == f.geom.Iterations-1 {
		f.rankDone(trial, o.cur)
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
