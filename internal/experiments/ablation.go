package experiments

import (
	"fmt"
	"io"
	"sort"

	"earlybird/internal/analysis"
	"earlybird/internal/omp"
	"earlybird/internal/partcomm"
	"earlybird/internal/stats"
)

// The ablations quantify the design choices DESIGN.md calls out: how the
// early-bird verdict depends on partition size (message cost vs arrival
// spread), on the binned strategy's flush timeout, on the laggard rule's
// threshold, and on the work-sharing schedule that shaped MiniFE's
// early-arrival distribution in the first place.

// SweepPoint is one point of a one-parameter ablation.
type SweepPoint struct {
	// Param is the swept value (bytes, seconds, ... depending on sweep).
	Param float64
	// OverlapSec is the fine-grained early-bird overlap vs bulk (A1/A2),
	// or the measured response for other sweeps.
	OverlapSec float64
	// Speedup is strategy speedup vs bulk where applicable.
	Speedup float64
}

// AblationPartitionSize sweeps bytes-per-partition and reports the
// fine-grained early-bird overlap per application. Small partitions are
// dominated by per-message cost (early-bird loses); large partitions by
// bandwidth (early-bird wins when arrivals spread beyond one transfer) —
// the crossover is the actionable output.
func (s *Suite) AblationPartitionSize(sizes []int) map[string][]SweepPoint {
	if len(sizes) == 0 {
		sizes = []int{1 << 10, 16 << 10, 256 << 10, 1 << 20, 4 << 20}
	}
	out := map[string][]SweepPoint{}
	for _, app := range AppNames {
		d := s.Dataset(app)
		points := make([]SweepPoint, 0, len(sizes))
		for _, size := range sizes {
			res := partcomm.EvaluateStream(d.Cursor(), size, s.cfg.Fabric, []partcomm.Strategy{partcomm.FineGrained{}})
			points = append(points, SweepPoint{
				Param:      float64(size),
				OverlapSec: res[0].MeanOverlapSec,
				Speedup:    res[0].SpeedupVsBulk,
			})
		}
		out[app] = points
	}
	return out
}

// AblationBinTimeout sweeps the binned strategy's flush timeout per
// application. Too-short timeouts pay per-flush message costs; too-long
// timeouts degenerate toward bulk.
func (s *Suite) AblationBinTimeout(timeouts []float64) map[string][]SweepPoint {
	if len(timeouts) == 0 {
		timeouts = []float64{0.1e-3, 0.5e-3, 1e-3, 2e-3, 5e-3, 10e-3}
	}
	out := map[string][]SweepPoint{}
	for _, app := range AppNames {
		d := s.Dataset(app)
		points := make([]SweepPoint, 0, len(timeouts))
		for _, to := range timeouts {
			res := partcomm.EvaluateStream(d.Cursor(), s.cfg.BytesPerPartition, s.cfg.Fabric,
				[]partcomm.Strategy{partcomm.Binned{TimeoutSec: to}})
			points = append(points, SweepPoint{
				Param:      to,
				OverlapSec: res[0].MeanOverlapSec,
				Speedup:    res[0].SpeedupVsBulk,
			})
		}
		out[app] = points
	}
	return out
}

// AblationLaggardThreshold sweeps the laggard rule's threshold and
// reports the laggard fraction per application — the sensitivity of the
// paper's "22.4% / 4.8%" observations to the 1 ms choice.
func (s *Suite) AblationLaggardThreshold(thresholds []float64) map[string][]SweepPoint {
	if len(thresholds) == 0 {
		thresholds = []float64{0.25e-3, 0.5e-3, 1e-3, 2e-3, 4e-3}
	}
	out := map[string][]SweepPoint{}
	for _, app := range AppNames {
		d := s.Dataset(app)
		points := make([]SweepPoint, 0, len(thresholds))
		for _, th := range thresholds {
			st := analysis.Laggards(d, th)
			points = append(points, SweepPoint{Param: th, OverlapSec: st.Fraction})
		}
		out[app] = points
	}
	return out
}

// ScheduleAblationResult reports the arrival spread produced by one
// work-sharing schedule on a deliberately imbalanced loop.
type ScheduleAblationResult struct {
	Schedule  omp.Schedule
	IQRSec    float64
	RangeSec  float64
	MedianSec float64
}

// AblationSchedules evaluates each work-sharing schedule on an
// imbalanced loop whose iteration cost grows linearly (mimicking
// MiniFE's outer loop over problem-space planes) and reports the
// resulting thread-arrival spread. The execution is a deterministic
// discrete-event simulation of the schedule semantics (the same
// partitioning rules as internal/omp), so the result is host-independent:
// static block partitioning concentrates the expensive iterations on the
// last threads (wide arrivals), while dynamic and guided flatten them —
// the mechanism behind the paper's MiniFE early-arrival observation.
func AblationSchedules(threads, loopIters, workScale int) []ScheduleAblationResult {
	costSec := func(i int) float64 { return float64(i) * float64(workScale) * 1e-9 }
	results := make([]ScheduleAblationResult, 0, 3)
	for _, sched := range []omp.Schedule{omp.Static, omp.Dynamic, omp.Guided} {
		arrivals := simulateSchedule(sched, threads, loopIters, costSec)
		sorted := stats.Sorted(arrivals)
		results = append(results, ScheduleAblationResult{
			Schedule:  sched,
			IQRSec:    stats.IQRSorted(sorted),
			RangeSec:  sorted[len(sorted)-1] - sorted[0],
			MedianSec: stats.PercentileSorted(sorted, 50),
		})
	}
	return results
}

// simulateSchedule returns per-thread arrival times for a loop of n
// iterations with the given per-iteration cost, under the schedule's
// assignment rule. Dynamic and guided are simulated greedily: the next
// chunk goes to the thread that becomes free first, which is what an
// eager work-stealing runtime converges to.
func simulateSchedule(sched omp.Schedule, threads, n int, costSec func(int) float64) []float64 {
	arrival := make([]float64, threads)
	switch sched {
	case omp.Static:
		// Contiguous blocks differing in size by at most one.
		base, rem := n/threads, n%threads
		start := 0
		for t := 0; t < threads; t++ {
			count := base
			if t < rem {
				count++
			}
			for i := start; i < start+count; i++ {
				arrival[t] += costSec(i)
			}
			start += count
		}
	case omp.Dynamic:
		next := 0
		for next < n {
			t := earliest(arrival)
			arrival[t] += costSec(next)
			next++
		}
	case omp.Guided:
		next := 0
		for next < n {
			grab := (n - next) / threads
			if grab < 1 {
				grab = 1
			}
			t := earliest(arrival)
			for k := 0; k < grab; k++ {
				arrival[t] += costSec(next)
				next++
			}
		}
	}
	return arrival
}

// earliest returns the index of the smallest element.
func earliest(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}

// WriteAblationReport renders all ablations to w.
func (s *Suite) WriteAblationReport(w io.Writer) {
	_ = s.Warm() // fill the dataset cache concurrently before the sweeps
	fmt.Fprintln(w, "== A1: fine-grained early-bird overlap vs partition size ==")
	a1 := s.AblationPartitionSize(nil)
	for _, app := range sortedKeys(a1) {
		fmt.Fprintf(w, "%s:\n", app)
		for _, p := range a1[app] {
			fmt.Fprintf(w, "  %8.0f KiB -> overlap %8.3f ms, speedup %5.3fx\n",
				p.Param/1024, 1e3*p.OverlapSec, p.Speedup)
		}
	}

	fmt.Fprintln(w, "\n== A2: binned-delivery overlap vs flush timeout ==")
	a2 := s.AblationBinTimeout(nil)
	for _, app := range sortedKeys(a2) {
		fmt.Fprintf(w, "%s:\n", app)
		for _, p := range a2[app] {
			fmt.Fprintf(w, "  %6.2f ms timeout -> overlap %8.3f ms, speedup %5.3fx\n",
				1e3*p.Param, 1e3*p.OverlapSec, p.Speedup)
		}
	}

	fmt.Fprintln(w, "\n== A3: laggard fraction vs detection threshold ==")
	a3 := s.AblationLaggardThreshold(nil)
	for _, app := range sortedKeys(a3) {
		fmt.Fprintf(w, "%s:\n", app)
		for _, p := range a3[app] {
			fmt.Fprintf(w, "  threshold %5.2f ms -> laggard fraction %6.1f%%\n",
				1e3*p.Param, 100*p.OverlapSec)
		}
	}

	fmt.Fprintln(w, "\n== A4: schedule ablation (simulated imbalanced loop; arrival spread per schedule) ==")
	for _, r := range AblationSchedules(8, 256, 2000) {
		fmt.Fprintf(w, "  %-8s IQR %8.3f ms  range %8.3f ms  median %8.3f ms\n",
			r.Schedule, 1e3*r.IQRSec, 1e3*r.RangeSec, 1e3*r.MedianSec)
	}
}

func sortedKeys[T any](m map[string]T) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
