// Adaptive delivery strategies: policies whose behaviour reacts to the
// measured arrival structure instead of a fixed parameter. They extend
// the paper's Section 5/6 discussion — given the thread-timing
// distributions of Section 4, *which* delivery policy makes early-bird
// delivery pay off — with three data-driven answers: predict the binning
// timeout from recent spread (EWMABinned), batch the laggard tail while
// shipping on-time partitions eagerly (LaggardAware), and switch
// bulk↔fine-grained per iteration on the observed IQR (Hybrid).

package partcomm

import (
	"fmt"

	"earlybird/internal/analysis"
	"earlybird/internal/network"
	"earlybird/internal/stats"
	"earlybird/internal/trace"
)

// DefaultEWMAMinTimeoutSec floors EWMABinned's predicted timeout: tight
// arrival distributions would otherwise drive the prediction towards
// zero, degenerating the binning loop into per-arrival flushes.
const DefaultEWMAMinTimeoutSec = 10e-6

// EWMABinned is timeout binning with a predicted timeout: each
// iteration flushes on the exponentially weighted moving average of the
// previously observed arrival IQRs, so the flush window tracks the
// application's spread instead of a fixed guess. The first iteration
// (no history yet) uses InitTimeoutSec.
//
// EWMABinned carries per-iteration state. The evaluation entry points
// (NewStrategyAccumulator, EvaluateStream, SweepCursor, Evaluate) Reset
// it up front, so repeated evaluations with one instance are
// deterministic; drive it from a single deterministic cursor and do not
// share one across goroutines or merged accumulators.
type EWMABinned struct {
	// Alpha is the smoothing factor in (0, 1]; higher tracks recent
	// iterations faster. Values outside the range clamp to 0.2.
	Alpha float64
	// InitTimeoutSec seeds the first iteration; <= 0 means 1 ms (the
	// paper's binning default).
	InitTimeoutSec float64
	// MinTimeoutSec floors the prediction; <= 0 means
	// DefaultEWMAMinTimeoutSec.
	MinTimeoutSec float64

	predicted float64
	seen      bool
}

// Name implements Strategy.
func (e *EWMABinned) Name() string { return fmt.Sprintf("ewma-binned(a=%g)", e.alpha()) }

func (e *EWMABinned) alpha() float64 {
	if e.Alpha <= 0 || e.Alpha > 1 {
		return 0.2
	}
	return e.Alpha
}

// FinishTime implements Strategy. It evaluates the current prediction,
// then folds this iteration's observed IQR into the EWMA for the next.
func (e *EWMABinned) FinishTime(arrivals []float64, bytesPerPart int, f network.Fabric) float64 {
	if len(arrivals) == 0 {
		return 0
	}
	floor := e.MinTimeoutSec
	if floor <= 0 {
		floor = DefaultEWMAMinTimeoutSec
	}
	timeout := e.predicted
	if !e.seen {
		timeout = e.InitTimeoutSec
		if timeout <= 0 {
			timeout = 1e-3
		}
	}
	if timeout < floor {
		timeout = floor
	}
	finish := Binned{TimeoutSec: timeout}.FinishTime(arrivals, bytesPerPart, f)

	iqr := stats.IQRSorted(arrivals)
	if !e.seen {
		e.predicted = iqr
		e.seen = true
	} else {
		a := e.alpha()
		e.predicted = a*iqr + (1-a)*e.predicted
	}
	return finish
}

// Reset clears the prediction state so the instance can evaluate a new
// study from scratch.
func (e *EWMABinned) Reset() {
	e.predicted = 0
	e.seen = false
}

// LaggardAware reorders delivery around the laggard rule: partitions
// arriving within ThresholdSec of the median thread are "on time" and
// ship fine-grained the moment they arrive (the link is idle while the
// laggard computes anyway), while the laggard tail is batched into one
// final message when the last thread arrives — so stragglers never pay
// per-message overhead on a link that has already drained.
type LaggardAware struct {
	// ThresholdSec separates on-time arrivals from laggards, measured
	// from the median arrival (the paper's Section 4.2.1 rule).
	ThresholdSec float64
}

// Name implements Strategy. The threshold renders in whole microseconds
// so tuned instances (TuneLaggardAware) keep stable, readable names.
func (l LaggardAware) Name() string {
	return fmt.Sprintf("laggard-aware(%.0fus)", l.ThresholdSec*1e6)
}

// FinishTime implements Strategy.
func (l LaggardAware) FinishTime(arrivals []float64, bytesPerPart int, f network.Fabric) float64 {
	n := len(arrivals)
	if n == 0 {
		return 0
	}
	cut := stats.PercentileSorted(arrivals, 50) + l.ThresholdSec
	tmax := arrivals[n-1]
	link := network.NewLink(f)
	done := 0.0
	late := 0
	for _, t := range arrivals {
		if t <= cut {
			if d := link.Send(t, bytesPerPart); d > done {
				done = d
			}
		} else {
			late++
		}
	}
	if late > 0 {
		if d := link.Send(tmax, bytesPerPart*late); d > done {
			done = d
		}
	}
	return done
}

// TuneLaggardAware derives a LaggardAware policy from measured laggard
// statistics (analysis.Laggards / analysis.LaggardsStream): the batching
// horizon is half the mean laggard magnitude — late enough that genuine
// stragglers land in the batched tail, early enough that the tail ships
// soon after the on-time cohort — floored at the paper's 1 ms rule when
// the study has no (or only marginal) laggards.
func TuneLaggardAware(st analysis.LaggardStats) LaggardAware {
	t := st.MeanMagnitudeSec / 2
	if t < analysis.DefaultLaggardThresholdSec {
		t = analysis.DefaultLaggardThresholdSec
	}
	return LaggardAware{ThresholdSec: t}
}

// Hybrid switches delivery mode per iteration on the observed arrival
// IQR: wide iterations (IQR above the cutoff) deliver fine-grained —
// the spread buys real overlap — and tight ones fall back to one bulk
// message, avoiding per-message overhead that early-bird delivery
// cannot recoup. By construction an iteration's finish time equals one
// of the two modes', so Hybrid is never worse than the slower of bulk
// and fine-grained on any iteration.
type Hybrid struct {
	// IQRCutoffSec is the mode switch; <= 0 means auto — the wire cost
	// of one partition, the point where shipping a partition early can
	// at least pay for its own message.
	IQRCutoffSec float64
}

// Name implements Strategy.
func (h Hybrid) Name() string {
	if h.IQRCutoffSec > 0 {
		return fmt.Sprintf("hybrid(%gus)", h.IQRCutoffSec*1e6)
	}
	return "hybrid(auto)"
}

// FinishTime implements Strategy.
func (h Hybrid) FinishTime(arrivals []float64, bytesPerPart int, f network.Fabric) float64 {
	if len(arrivals) == 0 {
		return 0
	}
	cut := h.IQRCutoffSec
	if cut <= 0 {
		cut = f.TransferTime(bytesPerPart)
	}
	if stats.IQRSorted(arrivals) > cut {
		return FineGrained{}.FinishTime(arrivals, bytesPerPart, f)
	}
	return Bulk{}.FinishTime(arrivals, bytesPerPart, f)
}

// Grid assembles the standard optimizer strategy set: the bulk and
// fine-grained anchors, one Binned per timeout, one EWMABinned per
// smoothing factor, the auto-cutoff Hybrid, and a LaggardAware policy
// tuned from the study's measured laggard statistics.
func Grid(timeoutsSec, ewmaAlphas []float64, lag analysis.LaggardStats) []Strategy {
	strategies := []Strategy{Bulk{}, FineGrained{}}
	for _, t := range timeoutsSec {
		strategies = append(strategies, Binned{TimeoutSec: t})
	}
	for _, a := range ewmaAlphas {
		strategies = append(strategies, &EWMABinned{Alpha: a})
	}
	strategies = append(strategies, Hybrid{}, TuneLaggardAware(lag))
	return strategies
}

// GridSweep is the strategy lab's one evaluator: a first cursor pass
// over src (a dataset or a columnar store) streams the laggard
// statistics under laggardThresholdSec, which tune Grid's laggard-aware
// policy, and a second pass evaluates the whole grid (SweepCursor).
func GridSweep(src interface{ Cursor() *trace.Cursor }, bytesPerPart int, f network.Fabric, timeoutsSec, ewmaAlphas []float64, laggardThresholdSec float64) Sweep {
	lag := analysis.LaggardsStream(src.Cursor(), laggardThresholdSec)
	return SweepCursor(src.Cursor(), bytesPerPart, f, Grid(timeoutsSec, ewmaAlphas, lag))
}

// Cloner marks strategies that carry evaluation state and therefore
// must not be shared across concurrent evaluations. CloneStrategy
// returns a fresh instance with the same parameters and no accumulated
// state.
type Cloner interface {
	Strategy
	CloneStrategy() Strategy
}

// CloneStrategy implements Cloner: same parameters, fresh prediction
// state.
func (e *EWMABinned) CloneStrategy() Strategy {
	return &EWMABinned{Alpha: e.Alpha, InitTimeoutSec: e.InitTimeoutSec, MinTimeoutSec: e.MinTimeoutSec}
}

// CloneSet returns a strategy set safe to hand to a new evaluation
// running concurrently with others: stateful strategies (Cloner) are
// replaced by fresh clones, stateless values pass through unchanged,
// and nil stays nil. core.Options uses this so one shared Options value
// can configure any number of concurrent studies.
func CloneSet(set []Strategy) []Strategy {
	if set == nil {
		return nil
	}
	out := make([]Strategy, len(set))
	for i, s := range set {
		if c, ok := s.(Cloner); ok {
			out[i] = c.CloneStrategy()
		} else {
			out[i] = s
		}
	}
	return out
}
