package analysis

import (
	"fmt"

	"earlybird/internal/stats"
	"earlybird/internal/trace"
)

// ReclaimableTime returns the paper's reclaimable-time quantity for one
// process iteration: the sum over threads of (latest arrival - this
// thread's arrival) — the total thread-time that early-bird communication
// could in principle put to use (Section 4.2).
func ReclaimableTime(xs []float64) float64 {
	recl, _ := reclaimable(xs, stats.Max(xs))
	return recl
}

// IdleRatio returns the cumulative idle time of a sample set divided by
// (latest arrival x thread count) — the paper's "ratio of time spent
// idle".
func IdleRatio(xs []float64) float64 {
	_, ratio := reclaimable(xs, stats.Max(xs))
	return ratio
}

// AppMetrics collects the scalar quantities Section 4.2 reports per
// application. The paper's definitions of the two idle metrics are
// mutually inconsistent under a single aggregation level (see DESIGN.md),
// so both metrics are computed at both levels.
type AppMetrics struct {
	App string `json:"app"`
	// MeanMedianSec is the mean over process iterations of the median
	// thread arrival time (paper: 26.30 / 24.74 / 60.91 ms).
	MeanMedianSec float64 `json:"mean_median_sec"`
	// LaggardFraction is the fraction of process iterations whose latest
	// thread is more than 1 ms past the median (paper: 22.4% MiniFE,
	// 4.8% MiniMD phase two).
	LaggardFraction float64 `json:"laggard_fraction"`
	// AvgReclaimableProcSec is the mean over process iterations of
	// ReclaimableTime (paper: 42.82 / 17.61 / 708.03 ms).
	AvgReclaimableProcSec float64 `json:"avg_reclaimable_proc_sec"`
	// IdleRatioProc is the mean over process iterations of IdleRatio.
	IdleRatioProc float64 `json:"idle_ratio_proc"`
	// AvgReclaimableAppIterSec and IdleRatioAppIter are the same metrics
	// computed over application-iteration aggregations (3840 samples).
	AvgReclaimableAppIterSec float64 `json:"avg_reclaimable_app_iter_sec"`
	IdleRatioAppIter         float64 `json:"idle_ratio_app_iter"`
	// IQRMeanSec and IQRMaxSec summarise the application-iteration IQR
	// across iterations (the quantities read off Figures 4, 6 and 8).
	IQRMeanSec float64 `json:"iqr_mean_sec"`
	IQRMaxSec  float64 `json:"iqr_max_sec"`
}

// IQRToMedian returns the width discriminant of the Section 5
// classification: the mean iteration IQR over the mean median arrival,
// or zero when the median is not positive.
func (m AppMetrics) IQRToMedian() float64 {
	if m.MeanMedianSec <= 0 {
		return 0
	}
	return m.IQRMeanSec / m.MeanMedianSec
}

// ComputeMetrics derives AppMetrics for the whole dataset.
func ComputeMetrics(d *trace.Dataset, laggardThreshold float64) AppMetrics {
	return ComputeMetricsInRange(d, laggardThreshold, 0, d.Iterations)
}

// ComputeMetricsInRange derives AppMetrics restricted to iterations in
// [fromIter, toIter), for phase-wise analysis (MiniMD), in one exact
// pass (RunExactPass).
func ComputeMetricsInRange(d *trace.Dataset, laggardThreshold float64, fromIter, toIter int) AppMetrics {
	return RunExactPass(d, fromIter, toIter, PassOptions{}).Metrics(laggardThreshold)
}

// String renders the metrics in milliseconds, as the paper reports them.
func (m AppMetrics) String() string {
	return fmt.Sprintf(
		"%s: mean median %.2f ms, laggard iterations %.1f%%, "+
			"avg reclaimable (process) %.2f ms, idle ratio (process) %.4f, "+
			"avg reclaimable (app-iter) %.2f ms, idle ratio (app-iter) %.4f, "+
			"IQR mean %.2f ms, IQR max %.2f ms",
		m.App, 1e3*m.MeanMedianSec, 100*m.LaggardFraction,
		1e3*m.AvgReclaimableProcSec, m.IdleRatioProc,
		1e3*m.AvgReclaimableAppIterSec, m.IdleRatioAppIter,
		1e3*m.IQRMeanSec, 1e3*m.IQRMaxSec)
}
