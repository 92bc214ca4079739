package analysis

import (
	"earlybird/internal/sortx"
	"earlybird/internal/trace"
)

// SortedObserver consumes one process-iteration block in both views the
// block kernel holds: xs in its original sample order and sorted, an
// ascending copy. Neither slice may be modified or retained.
type SortedObserver interface {
	ObserveSorted(trial, rank, iter int, xs, sorted []float64)
}

// Kernel is the block kernel every exact-statistics path drives: it
// copies each process-iteration block once into a reused buffer, sorts
// that copy once with sortx, and hands the original and the sorted view
// to each of its consumers in turn — ExactPass (RunExactPass), the
// MetricsAccumulator and Table1Accumulator of a fleet shard or a
// streaming study, or any other SortedObserver. Order statistics read
// the sorted view; sums read the original order, so every consumer's
// output is bit-identical to what it computes alone. A Kernel implements
// cluster.BlockObserver and is not safe for concurrent use.
type Kernel struct {
	consumers []SortedObserver
	sorted    []float64
}

// NewKernel returns a kernel feeding the given consumers, in order.
func NewKernel(consumers ...SortedObserver) *Kernel {
	return &Kernel{consumers: consumers}
}

// ObserveBlock copies and sorts xs once and passes both views to every
// consumer. xs is not retained.
func (k *Kernel) ObserveBlock(trial, rank, iter int, xs []float64) {
	k.sorted = append(k.sorted[:0], xs...)
	sortx.Sort(k.sorted)
	for _, c := range k.consumers {
		c.ObserveSorted(trial, rank, iter, xs, k.sorted)
	}
}

// ObserveCursor observes every block cur yields, adding trialLo to each
// block's trial index (the cursor of a trial shard counts from zero).
func (k *Kernel) ObserveCursor(cur *trace.Cursor, trialLo int) {
	for cur.Next() {
		b := cur.Block()
		k.ObserveBlock(b.Trial+trialLo, b.Rank, b.Iter, b.Times)
	}
}
