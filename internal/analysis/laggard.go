package analysis

import (
	"earlybird/internal/stats"
	"earlybird/internal/trace"
)

// DefaultLaggardThresholdSec is the paper's laggard rule: a process
// iteration contains a laggard when its latest thread arrives more than
// 1 ms after the median thread (chosen as roughly 5% of the median
// arrival time, Section 4.2.1).
const DefaultLaggardThresholdSec = 1e-3

// HasLaggard reports whether the latest arrival exceeds the median by
// more than threshold seconds.
func HasLaggard(xs []float64, threshold float64) bool {
	return stats.Max(xs)-stats.Median(xs) > threshold
}

// LaggardStats summarises laggard occurrence over all process iterations
// of a dataset.
type LaggardStats struct {
	Total       int
	WithLaggard int
	// Fraction = WithLaggard / Total (paper: 22.4% MiniFE, 4.8% MiniMD
	// phase two).
	Fraction float64
	// MeanMagnitudeSec is the mean of (max - median) over laggard
	// iterations only.
	MeanMagnitudeSec float64
}

// Laggards classifies every process iteration of d with the given
// threshold.
func Laggards(d *trace.Dataset, threshold float64) LaggardStats {
	return LaggardsInRange(d, threshold, 0, d.Iterations)
}

// LaggardsInRange classifies process iterations with iteration index in
// [fromIter, toIter) — used to analyse MiniMD's two phases separately.
func LaggardsInRange(d *trace.Dataset, threshold float64, fromIter, toIter int) LaggardStats {
	return RunExactPass(d, fromIter, toIter, PassOptions{}).Laggards(threshold)
}

// LaggardsStream classifies every process iteration yielded by the
// cursor — the cursor-native counterpart of Laggards, with identical
// results (each block is a complete iteration when observed) and
// O(threads) live memory. Strategy-lab consumers use it to tune
// laggard-aware delivery without materialising the nested view.
func LaggardsStream(cur *trace.Cursor, threshold float64) LaggardStats {
	var p ExactPass
	k := NewKernel(&p)
	for cur.Next() {
		if b := cur.Block(); len(b.Times) > 0 {
			k.ObserveBlock(b.Trial, b.Rank, b.Iter, b.Times)
		}
	}
	return p.Laggards(threshold)
}

// FindExampleIterations returns the coordinates of one process iteration
// with a laggard and one without, for rendering the paper's example
// histograms (Figures 5 and 7). Either return value may be nil if no such
// iteration exists in [fromIter, toIter).
func FindExampleIterations(d *trace.Dataset, threshold float64, fromIter, toIter int) (withLaggard, without []int) {
	d.EachProcessIteration(func(trial, rank, iter int, xs []float64) {
		if iter < fromIter || iter >= toIter {
			return
		}
		if HasLaggard(xs, threshold) {
			if withLaggard == nil {
				withLaggard = []int{trial, rank, iter}
			}
		} else if without == nil {
			without = []int{trial, rank, iter}
		}
	})
	return withLaggard, without
}
