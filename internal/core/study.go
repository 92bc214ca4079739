// Package core ties the substrates into the paper's methodology: run (or
// load) a thread-timing study of an application, analyse the arrival
// distributions at the three aggregation levels, and assess the
// feasibility of early-bird message delivery for that application.
//
// This is the library's primary public surface; the root earlybird
// package re-exports it.
package core

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"earlybird/internal/analysis"
	"earlybird/internal/cluster"
	"earlybird/internal/dlb"
	"earlybird/internal/network"
	"earlybird/internal/partcomm"
	"earlybird/internal/stats"
	"earlybird/internal/stats/normality"
	"earlybird/internal/trace"
	"earlybird/internal/workload"
)

// PolicySpec bundles every policy axis of a study in one value: the
// delivery-strategy set the feasibility assessment evaluates, the
// runtime rebalancing (DLB) policy the samples are generated under, and
// the two analysis thresholds. It is the unified policy surface shared
// by core.Options, the serve layer's request envelope and the facade;
// zero fields fill with the paper's defaults.
type PolicySpec struct {
	// Strategies is the delivery-strategy set Feasibility evaluates; nil
	// means the paper's three (bulk, fine-grained, binned at the
	// assessment's timeout). Stateful strategies are cloned per study,
	// so one PolicySpec may safely configure concurrent studies.
	Strategies []partcomm.Strategy
	// DLB selects the runtime rebalancing policy the dataset is
	// generated under; the zero value is the static thread layout.
	DLB dlb.Spec
	// Alpha is the normality significance level; zero means 5%.
	Alpha float64
	// LaggardThresholdSec is the laggard rule; zero means 1 ms.
	LaggardThresholdSec float64
}

// Options configures a study.
type Options struct {
	// App selects a built-in application model ("minife", "minimd",
	// "miniqmc") when Model is nil.
	App string
	// Model overrides App with a custom workload model.
	Model workload.Model
	// Geometry is the study size; zero value means the paper's
	// 10 x 8 x 200 x 48.
	Geometry cluster.Config
	// Policy bundles the study's policy axes; zero fields fill with the
	// paper defaults.
	Policy PolicySpec
}

// fillPolicy applies the paper defaults, canonicalises the DLB spec and
// clones stateful strategies.
func (o *Options) fillPolicy() error {
	if o.Policy.Alpha == 0 {
		o.Policy.Alpha = normality.DefaultAlpha
	}
	if o.Policy.LaggardThresholdSec == 0 {
		o.Policy.LaggardThresholdSec = analysis.DefaultLaggardThresholdSec
	}
	resolved, err := o.Policy.DLB.Resolve()
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	o.Policy.DLB = resolved
	// Stateful strategies (e.g. *partcomm.EWMABinned) must not be shared
	// across concurrent studies; cloning here makes one Options value
	// safe to reuse however the caller likes.
	o.Policy.Strategies = partcomm.CloneSet(o.Policy.Strategies)
	return nil
}

func (o *Options) fill() error {
	if o.Model == nil {
		if o.App == "" {
			return errors.New("core: either App or Model must be set")
		}
		m, err := workload.ByName(o.App)
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
		o.Model = m
	}
	if o.Geometry == (cluster.Config{}) {
		o.Geometry = cluster.DefaultConfig()
	}
	return o.fillPolicy()
}

// Study is a collected thread-timing dataset plus the analysis
// configuration.
type Study struct {
	opts Options
	ds   *trace.Dataset
}

// NewStudy runs the configured study and returns it.
func NewStudy(opts Options) (*Study, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	col, err := cluster.RunColumnar(opts.Model, opts.Geometry, opts.Policy.DLB, 0, nil)
	if err != nil {
		return nil, err
	}
	return &Study{opts: opts, ds: col.Dataset()}, nil
}

// FromDataset wraps an existing dataset (for example, read back from
// JSON) in a Study with default analysis parameters.
func FromDataset(ds *trace.Dataset) (*Study, error) {
	return FromDatasetWith(ds, Options{})
}

// FromDatasetWith wraps an existing dataset in a Study with explicit
// analysis parameters (zero values fill with the defaults). Options.App
// and Options.Model are ignored: the dataset already carries its
// application identity. The study does not copy or mutate ds, so a cached
// dataset may safely back many studies with different analysis options.
func FromDatasetWith(ds *trace.Dataset, opts Options) (*Study, error) {
	if ds == nil {
		return nil, errors.New("core: nil dataset")
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	opts.App = ds.App
	opts.Model = nil
	if err := opts.fillPolicy(); err != nil {
		return nil, err
	}
	return &Study{opts: opts, ds: ds}, nil
}

// Dataset returns the underlying dataset.
func (s *Study) Dataset() *trace.Dataset { return s.ds }

// App returns the application name.
func (s *Study) App() string { return s.ds.App }

// Metrics computes the Section 4.2 scalar metrics.
func (s *Study) Metrics() analysis.AppMetrics {
	return analysis.ComputeMetrics(s.ds, s.opts.Policy.LaggardThresholdSec)
}

// MetricsStreaming computes the same scalars as Metrics in a single
// bounded-memory pass over the dataset's cursor: no per-level sample
// slices are materialised, at the cost of the iteration IQR statistics
// being sketch estimates (see analysis.ComputeMetricsStreaming). The
// exact path stays available as Metrics.
func (s *Study) MetricsStreaming() analysis.AppMetrics {
	return analysis.ComputeMetricsStreaming(s.ds.App, s.ds.Cursor(), s.opts.Policy.LaggardThresholdSec)
}

// Table1Streaming computes the Table 1 row via the dataset's cursor; the
// result is identical to Table1 (the normality battery always runs per
// complete process iteration) without materialising sample slices.
func (s *Study) Table1Streaming() analysis.Table1 {
	return analysis.Table1Streaming(s.ds.App, s.ds.Cursor(), s.opts.Policy.Alpha)
}

// Table1 computes the study's process-iteration normality row.
func (s *Study) Table1() analysis.Table1 {
	return analysis.Table1Row(s.ds, s.opts.Policy.Alpha)
}

// Laggards classifies the study's process iterations.
func (s *Study) Laggards() analysis.LaggardStats {
	return analysis.Laggards(s.ds, s.opts.Policy.LaggardThresholdSec)
}

// Percentiles computes the per-iteration percentile series (the paper's
// Figures 4/6/8).
func (s *Study) Percentiles() *analysis.PercentileSeries {
	return analysis.IterationPercentiles(s.ds, nil)
}

// Histogram builds the application-level arrival histogram with the
// given bin width in seconds (the paper's Figure 3 uses 10e-6).
func (s *Study) Histogram(binWidthSec float64) *stats.Histogram {
	return analysis.ApplicationHistogram(s.ds, binWidthSec)
}

// Recommendation classifies how an application should employ early-bird
// communication, following the paper's Section 5 discussion.
type Recommendation string

const (
	// RecommendTimeoutFlush suits applications whose reclaimable time
	// comes from laggards in a minority of iterations (MiniFE): transmit
	// accumulated data on a timeout so early threads ship while the
	// laggard computes.
	RecommendTimeoutFlush Recommendation = "timeout-flush"
	// RecommendFineGrained suits applications with persistently wide
	// arrival distributions (MiniQMC): both binning and fine-grained
	// early-bird transmission pay off.
	RecommendFineGrained Recommendation = "fine-grained-or-binned"
	// RecommendSophisticated flags applications with tight arrivals and
	// rare, high-magnitude laggards (MiniMD phase 2): a simple overlap
	// model is unlikely to succeed.
	RecommendSophisticated Recommendation = "sophisticated-approach-needed"
)

// Classification cutoffs for the Section 5 recommendation (see Classify).
const (
	// IQRToMedianCutoff is the IQR/median ratio above which the arrival
	// distribution counts as persistently wide (MiniQMC's is ~0.15).
	IQRToMedianCutoff = 0.05
	// LaggardFractionCutoff is the laggard-iteration fraction above which
	// reclaimable time counts as laggard-driven (MiniFE's is ~0.224).
	LaggardFractionCutoff = 0.10
)

// Classify maps the two feasibility discriminants onto a recommendation:
// a wide distribution (IQR/median strictly above IQRToMedianCutoff) calls
// for fine-grained or binned delivery; otherwise a laggard-driven profile
// (fraction strictly above LaggardFractionCutoff) calls for timeout
// flushing; tight arrivals with rare laggards need a sophisticated
// approach. Values exactly at a cutoff do not trigger it.
func Classify(iqrToMedian, laggardFraction float64) Recommendation {
	switch {
	case iqrToMedian > IQRToMedianCutoff:
		return RecommendFineGrained
	case laggardFraction > LaggardFractionCutoff:
		return RecommendTimeoutFlush
	default:
		return RecommendSophisticated
	}
}

// ClassifyMetrics applies the Section 5 cutoffs directly to a metrics
// row: the streaming counterpart of Feasibility's classification for
// paths that never materialise a dataset (the serve layer's sweep
// endpoint). It uses the base laggard fraction, without Feasibility's
// widened effective threshold, so verdicts near the laggard cutoff can
// differ from the full assessment for intrinsically wide-phase
// applications.
func ClassifyMetrics(m analysis.AppMetrics) Recommendation {
	return Classify(m.IQRToMedian(), m.LaggardFraction)
}

// Assessment is the early-bird feasibility verdict for one application.
type Assessment struct {
	App string `json:"app"`
	// PotentialOverlapSec is the mean per-thread idle time available for
	// overlap (reclaimable time / threads), the upper bound of Figure 2.
	PotentialOverlapSec float64 `json:"potential_overlap_sec"`
	// Results holds the delivery-strategy evaluation (bulk baseline,
	// fine-grained, binned).
	Results []partcomm.Result `json:"results"`
	// LaggardFraction and IQRToMedian feed the recommendation.
	LaggardFraction float64        `json:"laggard_fraction"`
	IQRToMedian     float64        `json:"iqr_to_median"`
	Recommendation  Recommendation `json:"recommendation"`
}

// Feasibility evaluates delivery strategies over the study's arrival
// data with one partition per thread of bytesPerPart bytes.
//
// The laggard fraction used for classification is computed with an
// effective threshold of max(LaggardThresholdSec, 3 x mean IQR) so that
// applications with intrinsically wide phases (MiniMD's initial
// iterations) are not classified as laggard-driven when the spread is
// symmetric rather than a straggling tail.
func (s *Study) Feasibility(bytesPerPart int, fabric network.Fabric, binTimeoutSec float64) Assessment {
	_, _, a := s.analyze(false, bytesPerPart, fabric, binTimeoutSec)
	return a
}

// Analyze is Metrics, Table1 and Feasibility in one exact pass over the
// dataset (analysis.RunExactPass): every process iteration is copied and
// sorted once, and that sorted block feeds the metrics, the normality
// battery and the delivery strategies alike. The three results are
// bit-identical to the three separate calls.
func (s *Study) Analyze(bytesPerPart int, fabric network.Fabric, binTimeoutSec float64) (analysis.AppMetrics, analysis.Table1, Assessment) {
	p, m, a := s.analyze(true, bytesPerPart, fabric, binTimeoutSec)
	return m, p.Table1(), a
}

// analyze runs the exact pass with the delivery strategies observing
// each sorted block, and the normality battery when battery is set, and
// assembles the metrics and the feasibility assessment from it.
func (s *Study) analyze(battery bool, bytesPerPart int, fabric network.Fabric, binTimeoutSec float64) (*analysis.ExactPass, analysis.AppMetrics, Assessment) {
	strategies := s.opts.Policy.Strategies
	if strategies == nil {
		strategies = []partcomm.Strategy{
			partcomm.Bulk{},
			partcomm.FineGrained{},
			partcomm.Binned{TimeoutSec: binTimeoutSec},
		}
	}
	acc := partcomm.NewStrategyAccumulator(strategies, bytesPerPart, fabric)
	p := analysis.RunExactPass(s.ds, 0, s.ds.Iterations, analysis.PassOptions{
		Battery: battery,
		Alpha:   s.opts.Policy.Alpha,
		Sorted:  acc.ObserveSorted,
	})
	m := p.Metrics(s.opts.Policy.LaggardThresholdSec)
	effThreshold := s.opts.Policy.LaggardThresholdSec
	if t := 3 * m.IQRMeanSec; t > effThreshold {
		effThreshold = t
	}
	a := Assessment{
		App:                 s.ds.App,
		PotentialOverlapSec: m.AvgReclaimableProcSec / float64(s.ds.Threads),
		Results:             acc.Finalize(),
		LaggardFraction:     p.Laggards(effThreshold).Fraction,
		IQRToMedian:         m.IQRToMedian(),
	}
	a.Recommendation = Classify(a.IQRToMedian, a.LaggardFraction)
	return p, m, a
}

// StrategySweep evaluates a delivery-strategy grid over the study's
// arrivals on the cursor path and returns the per-strategy results plus
// the frontier (best finish time and overlap capture). nil strategies
// means the standard optimizer grid (partcomm.Grid) with the paper's
// binning timeouts and a laggard-aware policy tuned from this study's
// measured laggard statistics.
func (s *Study) StrategySweep(bytesPerPart int, fabric network.Fabric, strategies []partcomm.Strategy) partcomm.Sweep {
	if strategies == nil {
		return partcomm.GridSweep(s.ds, bytesPerPart, fabric,
			DefaultStrategyTimeoutsSec(), DefaultStrategyEWMAAlphas(), s.opts.Policy.LaggardThresholdSec)
	}
	return partcomm.SweepCursor(s.ds.Cursor(), bytesPerPart, fabric, strategies)
}

// DefaultStrategyTimeoutsSec returns the binned-timeout axis of the
// standard strategy grid: the paper's 1 ms bracketed by quarters,
// halves and doubles.
func DefaultStrategyTimeoutsSec() []float64 {
	return []float64{0.25e-3, 0.5e-3, 1e-3, 2e-3}
}

// DefaultStrategyEWMAAlphas returns the EWMA smoothing axis of the
// standard strategy grid.
func DefaultStrategyEWMAAlphas() []float64 { return []float64{0.2} }

// String renders the assessment.
func (a Assessment) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: potential overlap %.2f ms/thread, laggard iterations %.1f%%, IQR/median %.3f -> %s\n",
		a.App, 1e3*a.PotentialOverlapSec, 100*a.LaggardFraction, a.IQRToMedian, a.Recommendation)
	for _, r := range a.Results {
		fmt.Fprintf(&b, "  %s\n", r)
	}
	return b.String()
}

// WriteSummary renders the study's headline analysis to w.
func (s *Study) WriteSummary(w io.Writer) {
	fmt.Fprintf(w, "study %s: %d trials x %d ranks x %d iterations x %d threads\n",
		s.ds.App, s.ds.Trials, s.ds.Ranks, s.ds.Iterations, s.ds.Threads)
	p := analysis.RunExactPass(s.ds, 0, s.ds.Iterations, analysis.PassOptions{Battery: true, Alpha: s.opts.Policy.Alpha})
	fmt.Fprintln(w, p.Metrics(s.opts.Policy.LaggardThresholdSec))
	fmt.Fprintln(w, p.Table1())
	st := p.Laggards(s.opts.Policy.LaggardThresholdSec)
	fmt.Fprintf(w, "laggards: %d/%d process iterations (%.1f%%), mean magnitude %.2f ms\n",
		st.WithLaggard, st.Total, 100*st.Fraction, 1e3*st.MeanMagnitudeSec)
}
