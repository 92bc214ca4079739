// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 4) plus the early-bird feasibility analysis its
// discussion motivates (Section 5). Each experiment has a runner keyed by
// the DESIGN.md experiment index (E1-E13), shared dataset caching, and a
// text renderer used by cmd/repro and EXPERIMENTS.md.
package experiments

import (
	"fmt"

	"earlybird/internal/analysis"
	"earlybird/internal/cluster"
	"earlybird/internal/dlb"
	"earlybird/internal/engine"
	"earlybird/internal/network"
	"earlybird/internal/partcomm"
	"earlybird/internal/stats"
	"earlybird/internal/stats/normality"
	"earlybird/internal/trace"
	"earlybird/internal/workload"
)

// AppNames lists the studied applications in the paper's order.
var AppNames = []string{"minife", "minimd", "miniqmc"}

// Config parameterises a full reproduction run.
type Config struct {
	// Cluster is the study geometry (paper: 10 x 8 x 200 x 48).
	Cluster cluster.Config
	// Alpha is the significance level (paper: 5%).
	Alpha float64
	// LaggardThresholdSec is the laggard rule (paper: 1 ms).
	LaggardThresholdSec float64
	// BytesPerPartition sizes the early-bird experiments' partitions.
	BytesPerPartition int
	// Fabric is the interconnect model for the overlap experiments.
	Fabric network.Fabric
	// BinTimeoutSec is the timeout of the binned delivery strategy.
	BinTimeoutSec float64
	// DLB is the runtime rebalancing policy the suite's datasets are
	// generated under; the zero value is the paper's fixed (static)
	// thread layout. E15 crosses the delivery strategies against every
	// policy regardless of this base setting.
	DLB dlb.Spec
}

// Default returns the paper's configuration.
func Default() Config {
	return Config{
		Cluster:             cluster.DefaultConfig(),
		Alpha:               normality.DefaultAlpha,
		LaggardThresholdSec: analysis.DefaultLaggardThresholdSec,
		BytesPerPartition:   1 << 20, // 1 MiB per thread portion
		Fabric:              network.OmniPath(),
		BinTimeoutSec:       1e-3,
	}
}

// Quick returns a reduced configuration for fast smoke runs: same thread
// count, fewer trials/iterations.
func Quick() Config {
	c := Default()
	c.Cluster = cluster.Config{Trials: 3, Ranks: 4, Iterations: 60, Threads: 48, Seed: 1}
	return c
}

// Suite runs experiments over datasets generated and cached by a
// campaign engine: repeated requests for an application are served from
// the engine's content-addressed cache, and Warm fans the three
// applications out concurrently before a report renders.
type Suite struct {
	cfg    Config
	eng    *engine.Engine
	models map[string]workload.Model
}

// NewSuiteOn returns a Suite running on a shared engine, so several
// suites (or a suite and ad-hoc campaigns) reuse one dataset cache.
func NewSuiteOn(cfg Config, eng *engine.Engine) *Suite {
	models := make(map[string]workload.Model, len(AppNames))
	for _, app := range AppNames {
		m, err := workload.ByName(app)
		if err != nil {
			panic(err) // AppNames lists only built-in apps
		}
		models[app] = m
	}
	return &Suite{cfg: cfg, eng: eng, models: models}
}

// Config returns the suite configuration.
func (s *Suite) Config() Config { return s.cfg }

// Engine returns the campaign engine backing the suite.
func (s *Suite) Engine() *engine.Engine { return s.eng }

// Model returns the workload model backing an application.
func (s *Suite) Model(app string) workload.Model {
	return s.models[app]
}

// Dataset returns the (engine-cached) dataset of one application.
func (s *Suite) Dataset(app string) *trace.Dataset {
	m, ok := s.models[app]
	if !ok {
		panic(fmt.Sprintf("experiments: unknown app %q", app))
	}
	d, _, err := s.eng.DatasetDLB(m, s.cfg.Cluster, s.cfg.DLB)
	if err != nil {
		panic(fmt.Sprintf("experiments: %s: %v", app, err))
	}
	return d
}

// Warm generates all three applications' datasets concurrently, so the
// serially rendered experiments that follow hit the engine's cache. It
// generates datasets only — no analysis — and is idempotent and cheap
// when the cache is already populated.
func (s *Suite) Warm() error {
	models := make([]workload.Model, 0, len(AppNames))
	for _, app := range AppNames {
		models = append(models, s.models[app])
	}
	return s.eng.PrefetchDLB(models, s.cfg.Cluster, s.cfg.DLB)
}

// E1AppLevelNormality tests the full application aggregation per app
// (paper: all three tests reject for all three applications).
func (s *Suite) E1AppLevelNormality() map[string][3]normality.Result {
	out := map[string][3]normality.Result{}
	for _, app := range AppNames {
		out[app] = analysis.ApplicationLevelNormality(s.Dataset(app), s.cfg.Alpha)
	}
	return out
}

// E2AppIterationNormality tests each application iteration (paper:
// MiniFE/MiniMD 0/200 pass; MiniQMC has eight iterations passing
// D'Agostino while failing the other two tests).
func (s *Suite) E2AppIterationNormality() map[string]*analysis.NormalitySummary {
	out := map[string]*analysis.NormalitySummary{}
	for _, app := range AppNames {
		out[app] = analysis.ApplicationIterationNormality(s.Dataset(app), s.cfg.Alpha)
	}
	return out
}

// E3Table1 computes the paper's Table 1 (process-iteration normality pass
// percentages).
func (s *Suite) E3Table1() []analysis.Table1 {
	rows := make([]analysis.Table1, 0, len(AppNames))
	for _, app := range AppNames {
		rows = append(rows, analysis.Table1Row(s.Dataset(app), s.cfg.Alpha))
	}
	return rows
}

// E4Fig3Histograms builds the application-level arrival histograms with
// the paper's 10 microsecond bins.
func (s *Suite) E4Fig3Histograms() map[string]*stats.Histogram {
	out := map[string]*stats.Histogram{}
	for _, app := range AppNames {
		out[app] = analysis.ApplicationHistogram(s.Dataset(app), analysis.Fig3BinWidthSec)
	}
	return out
}

// E5Fig4MiniFEPercentiles computes MiniFE's per-iteration percentile
// series (Figure 4).
func (s *Suite) E5Fig4MiniFEPercentiles() *analysis.PercentileSeries {
	return analysis.IterationPercentiles(s.Dataset("minife"), nil)
}

// Fig5Result holds the MiniFE laggard-class reproduction (Figure 5).
type Fig5Result struct {
	NoLaggard       *stats.Histogram
	WithLaggard     *stats.Histogram
	LaggardFraction float64
}

// E6Fig5MiniFELaggards finds representative process iterations with and
// without a laggard and the laggard fraction (paper: 22.4%).
func (s *Suite) E6Fig5MiniFELaggards() Fig5Result {
	d := s.Dataset("minife")
	st := analysis.Laggards(d, s.cfg.LaggardThresholdSec)
	lag, noLag := analysis.FindExampleIterations(d, s.cfg.LaggardThresholdSec, 0, d.Iterations)
	res := Fig5Result{LaggardFraction: st.Fraction}
	if noLag != nil {
		res.NoLaggard = analysis.ProcessIterationHistogram(d, noLag[0], noLag[1], noLag[2], analysis.Fig5BinWidthSec)
	}
	if lag != nil {
		res.WithLaggard = analysis.ProcessIterationHistogram(d, lag[0], lag[1], lag[2], analysis.Fig5BinWidthSec)
	}
	return res
}

// Fig6Result summarises MiniMD's two-phase percentile behaviour
// (Figure 6).
type Fig6Result struct {
	Series                      *analysis.PercentileSeries
	Phase1IQRMean, Phase1IQRMax float64
	Phase2IQRMean, Phase2IQRMax float64
	PhaseBoundary               int
}

// E7Fig6MiniMDPercentiles computes the series and its phase-wise IQR
// statistics (paper: phase 1 IQR avg 0.93 ms / max 1.45 ms; phase 2 avg
// 0.15 ms / max 7.43 ms).
func (s *Suite) E7Fig6MiniMDPercentiles() Fig6Result {
	md, _ := s.Model("minimd").(*workload.MiniMD)
	boundary := 19
	if md != nil {
		boundary = md.PhaseOneIters
	}
	series := analysis.IterationPercentiles(s.Dataset("minimd"), nil)
	r := Fig6Result{Series: series, PhaseBoundary: boundary}
	r.Phase1IQRMean, r.Phase1IQRMax = series.IQRStats(0, boundary)
	r.Phase2IQRMean, r.Phase2IQRMax = series.IQRStats(boundary, s.cfg.Cluster.Iterations)
	return r
}

// Fig7Result holds MiniMD's arrival-class histograms (Figure 7).
type Fig7Result struct {
	Phase1          *stats.Histogram
	NoLaggard       *stats.Histogram
	WithLaggard     *stats.Histogram
	LaggardFraction float64 // phase 2 only (paper: 4.8%)
}

// E8Fig7MiniMDLaggards reproduces Figure 7's three example histograms.
func (s *Suite) E8Fig7MiniMDLaggards() Fig7Result {
	d := s.Dataset("minimd")
	md, _ := s.Model("minimd").(*workload.MiniMD)
	boundary := 19
	if md != nil {
		boundary = md.PhaseOneIters
	}
	st := analysis.LaggardsInRange(d, s.cfg.LaggardThresholdSec, boundary, d.Iterations)
	res := Fig7Result{LaggardFraction: st.Fraction}
	res.Phase1 = analysis.ProcessIterationHistogram(d, 0, 0, boundary/2, analysis.Fig7aBinWidthSec)
	lag, noLag := analysis.FindExampleIterations(d, s.cfg.LaggardThresholdSec, boundary, d.Iterations)
	if noLag != nil {
		res.NoLaggard = analysis.ProcessIterationHistogram(d, noLag[0], noLag[1], noLag[2], analysis.Fig7bcBinWidthSec)
	}
	if lag != nil {
		res.WithLaggard = analysis.ProcessIterationHistogram(d, lag[0], lag[1], lag[2], analysis.Fig7bcBinWidthSec)
	}
	return res
}

// E9Fig8MiniQMCPercentiles computes MiniQMC's percentile series
// (Figure 8; paper: IQR mean 9.05 ms, max 15.61 ms).
func (s *Suite) E9Fig8MiniQMCPercentiles() *analysis.PercentileSeries {
	return analysis.IterationPercentiles(s.Dataset("miniqmc"), nil)
}

// E10Fig9MiniQMCHistogram renders one representative MiniQMC process
// iteration with 1 ms bins (Figure 9).
func (s *Suite) E10Fig9MiniQMCHistogram() *stats.Histogram {
	d := s.Dataset("miniqmc")
	return analysis.ProcessIterationHistogram(d, 0, 0, d.Iterations/2, analysis.Fig9BinWidthSec)
}

// E11Metrics computes the Section 4.2 scalar metrics per application.
func (s *Suite) E11Metrics() map[string]analysis.AppMetrics {
	out := map[string]analysis.AppMetrics{}
	for _, app := range AppNames {
		out[app] = analysis.ComputeMetrics(s.Dataset(app), s.cfg.LaggardThresholdSec)
	}
	return out
}

// E12Overlap evaluates the delivery strategies per application (the
// feasibility question of Figures 1-2 and Section 5).
func (s *Suite) E12Overlap() map[string][]partcomm.Result {
	strategies := []partcomm.Strategy{
		partcomm.Bulk{},
		partcomm.FineGrained{},
		partcomm.Binned{TimeoutSec: s.cfg.BinTimeoutSec},
	}
	out := map[string][]partcomm.Result{}
	for _, app := range AppNames {
		out[app] = partcomm.EvaluateStream(s.Dataset(app).Cursor(), s.cfg.BytesPerPartition, s.cfg.Fabric, strategies)
	}
	return out
}

// E14StrategyTimeouts returns the binned-timeout axis of the E14
// strategy grid: the configured timeout bracketed by quarters, halves
// and doubles.
func (s *Suite) E14StrategyTimeouts() []float64 {
	t := s.cfg.BinTimeoutSec
	return []float64{t / 4, t / 2, t, 2 * t}
}

// E14StrategyFrontier sweeps the standard delivery-strategy grid per
// application — bulk and fine-grained anchors, binned delivery across
// E14StrategyTimeouts, EWMA-predicted binning, the IQR-switching
// hybrid, and a laggard-aware policy tuned from each application's
// measured laggard statistics — entirely on the columnar cursor path:
// the engine's cached store is read through cursors and the nested
// tensor view is never built for this experiment.
func (s *Suite) E14StrategyFrontier() map[string]partcomm.Sweep {
	out := map[string]partcomm.Sweep{}
	for _, app := range AppNames {
		col, _, err := s.eng.ColumnarDLB(s.models[app], s.cfg.Cluster, s.cfg.DLB)
		if err != nil {
			panic(fmt.Sprintf("experiments: %s: %v", app, err))
		}
		out[app] = partcomm.GridSweep(col, s.cfg.BytesPerPartition, s.cfg.Fabric,
			s.E14StrategyTimeouts(), []float64{0.2}, s.cfg.LaggardThresholdSec)
	}
	return out
}
