// Cursor-native strategy evaluation. A StrategyAccumulator folds one
// process iteration at a time — sorting the arrivals into a reused scratch
// buffer, never retaining the block — so delivery strategies evaluate
// straight off a trace.Cursor (or a cluster.RunStream observer) without
// the nested tensor view ever being built: trace.NestedViews does not
// move on this path.

package partcomm

import (
	"earlybird/internal/network"
	"earlybird/internal/sortx"
	"earlybird/internal/trace"
)

// StrategyAccumulator evaluates a fixed strategy set over process
// iterations one block at a time. Per-block work is exact — each block is
// a complete iteration when observed — so Finalize returns precisely what
// the materialised reference computes, in O(threads) live memory.
//
// An accumulator is not safe for concurrent use. Accumulators over
// stateless strategies are mergeable in any order; adaptive strategies
// (see adaptive.go) carry per-iteration state, so their results depend on
// observation order and should be driven from a single deterministic
// cursor rather than merged across parallel observers.
type StrategyAccumulator struct {
	strategies   []Strategy
	bytesPerPart int
	fabric       network.Fabric

	n            int
	bulkSum      float64
	finishSums   []float64
	potentialSum float64
	scratch      []float64
}

// resettable is implemented by adaptive strategies whose per-iteration
// state must clear before a new evaluation (EWMABinned). Every
// evaluation entry point resets such strategies up front, so repeated
// evaluations with the same strategy slice are deterministic.
type resettable interface{ Reset() }

// NewStrategyAccumulator returns an empty accumulator evaluating the
// given strategies with one partition per thread of bytesPerPart bytes.
// Adaptive strategies in the slice are Reset so the evaluation starts
// from a clean prediction state.
func NewStrategyAccumulator(strategies []Strategy, bytesPerPart int, f network.Fabric) *StrategyAccumulator {
	for _, s := range strategies {
		if r, ok := s.(resettable); ok {
			r.Reset()
		}
	}
	return &StrategyAccumulator{
		strategies:   strategies,
		bytesPerPart: bytesPerPart,
		fabric:       f,
		finishSums:   make([]float64, len(strategies)),
	}
}

// ObserveBlock implements cluster.BlockObserver: it folds one complete
// process iteration's thread samples into the evaluation. xs need not be
// sorted and is not retained.
func (a *StrategyAccumulator) ObserveBlock(trial, rank, iter int, xs []float64) {
	if len(xs) == 0 {
		return
	}
	a.scratch = append(a.scratch[:0], xs...)
	sortx.Sort(a.scratch)
	a.ObserveSorted(a.scratch)
}

// ObserveSorted is ObserveBlock for a caller that has already sorted the
// block: arrivals must be ascending and is neither modified nor
// retained. It lets one sorted copy of a block feed the strategies and
// the exact statistics alike (see core.Study.Analyze). The bulk finish
// every strategy is compared against is computed once per block and is
// also the sum of a Bulk entry of the set, and the block's maximum is
// its last element.
func (a *StrategyAccumulator) ObserveSorted(arrivals []float64) {
	if len(arrivals) == 0 {
		return
	}
	bulkFinish := Bulk{}.FinishTime(arrivals, a.bytesPerPart, a.fabric)
	a.bulkSum += bulkFinish
	a.potentialSum += meanLead(arrivals, arrivals[len(arrivals)-1])
	for k, s := range a.strategies {
		finish := bulkFinish
		if _, bulk := s.(Bulk); !bulk {
			finish = s.FinishTime(arrivals, a.bytesPerPart, a.fabric)
		}
		a.finishSums[k] += finish
	}
	a.n++
}

// PotentialOverlapSec returns the mean idealised per-thread overlap of
// the observed iterations (the upper bound of the paper's Figure 2).
func (a *StrategyAccumulator) PotentialOverlapSec() float64 {
	if a.n == 0 {
		return 0
	}
	return a.potentialSum / float64(a.n)
}

// Finalize computes one Result per strategy from the accumulated sums.
func (a *StrategyAccumulator) Finalize() []Result {
	results := make([]Result, len(a.strategies))
	potential := a.PotentialOverlapSec()
	for k, s := range a.strategies {
		r := Result{Strategy: s.Name()}
		if a.n > 0 {
			r.MeanFinishSec = a.finishSums[k] / float64(a.n)
			meanBulk := a.bulkSum / float64(a.n)
			r.MeanOverlapSec = meanBulk - r.MeanFinishSec
			if r.MeanFinishSec > 0 {
				r.SpeedupVsBulk = meanBulk / r.MeanFinishSec
			}
			if potential > 0 {
				r.OverlapCapture = r.MeanOverlapSec / potential
			}
		}
		results[k] = r
	}
	return results
}

// Sweep is the outcome of evaluating a strategy grid over one study: the
// per-strategy results plus the frontier — which strategy finishes
// earliest and how much of the idealised overlap it captures.
type Sweep struct {
	// Results holds one row per swept strategy, in grid order.
	Results []Result `json:"results"`
	// PotentialOverlapSec is the mean idealised per-thread overlap: the
	// denominator of every OverlapCapture.
	PotentialOverlapSec float64 `json:"potential_overlap_sec"`
	// Best names the strategy with the smallest mean finish time;
	// BestFinishSec, BestOverlapSec and BestCapture are its row's values.
	Best           string  `json:"best"`
	BestFinishSec  float64 `json:"best_finish_sec"`
	BestOverlapSec float64 `json:"best_overlap_sec"`
	BestCapture    float64 `json:"best_capture"`
}

// frontier fills the Best* fields from Results.
func (s *Sweep) frontier() {
	best := -1
	for i, r := range s.Results {
		if best < 0 || r.MeanFinishSec < s.Results[best].MeanFinishSec {
			best = i
		}
	}
	if best < 0 {
		return
	}
	s.Best = s.Results[best].Strategy
	s.BestFinishSec = s.Results[best].MeanFinishSec
	s.BestOverlapSec = s.Results[best].MeanOverlapSec
	s.BestCapture = s.Results[best].OverlapCapture
}

// SweepCursor evaluates every strategy over each process iteration
// yielded by the cursor — a single pass, one sort per block, no
// materialisation — and returns the results with the frontier computed.
func SweepCursor(cur *trace.Cursor, bytesPerPart int, f network.Fabric, strategies []Strategy) Sweep {
	acc := NewStrategyAccumulator(strategies, bytesPerPart, f)
	for cur.Next() {
		b := cur.Block()
		acc.ObserveBlock(b.Trial, b.Rank, b.Iter, b.Times)
	}
	sw := Sweep{
		Results:             acc.Finalize(),
		PotentialOverlapSec: acc.PotentialOverlapSec(),
	}
	sw.frontier()
	return sw
}

// EvaluateStream runs each strategy over every process iteration the
// cursor yields, with one partition per thread of bytesPerPart bytes:
// the materialised reference's results in bounded memory, with no
// nested view.
func EvaluateStream(cur *trace.Cursor, bytesPerPart int, f network.Fabric, strategies []Strategy) []Result {
	return SweepCursor(cur, bytesPerPart, f, strategies).Results
}
