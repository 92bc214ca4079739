package partcomm

import (
	"fmt"
	"math"

	"earlybird/internal/network"
	"earlybird/internal/stats"
	"earlybird/internal/trace"
)

// Strategy is a message-delivery policy evaluated over one process
// iteration: given the sorted thread arrival times (seconds, one
// partition per thread) it returns the time at which the full buffer has
// been delivered over the fabric.
type Strategy interface {
	Name() string
	// FinishTime computes delivery completion. arrivals must be sorted
	// ascending; bytesPerPart is one partition's payload.
	FinishTime(arrivals []float64, bytesPerPart int, f network.Fabric) float64
}

// Bulk models the traditional BSP pattern: the whole buffer is sent as
// one message after the last thread arrives (the fork/join baseline the
// paper's Figure 1 contrasts against).
type Bulk struct{}

// Name implements Strategy.
func (Bulk) Name() string { return "bulk" }

// FinishTime implements Strategy.
func (Bulk) FinishTime(arrivals []float64, bytesPerPart int, f network.Fabric) float64 {
	if len(arrivals) == 0 {
		return 0
	}
	tmax := arrivals[len(arrivals)-1]
	return tmax + f.TransferTime(bytesPerPart*len(arrivals))
}

// FineGrained is per-partition early-bird delivery: every partition is
// injected the moment its thread arrives, serialising on the link.
type FineGrained struct{}

// Name implements Strategy.
func (FineGrained) Name() string { return "finegrained" }

// FinishTime implements Strategy. Every message is one partition, so
// the transfer time is priced once for the block.
func (FineGrained) FinishTime(arrivals []float64, bytesPerPart int, f network.Fabric) float64 {
	xfer := f.TransferTime(bytesPerPart)
	busy, done := 0.0, 0.0
	for _, t := range arrivals {
		busy = linkSend(busy, t, xfer)
		if busy > done {
			done = busy
		}
	}
	return done
}

// linkSend is one message on the strategies' serial link, which is idle
// from time 0: a message ready at ready on a link busy until busy starts
// at the later of the two and completes xfer seconds later, which it
// returns as the link's new busy time. Each FinishTime prices xfer with
// Fabric.TransferTime once per message size: TransferTime is a pure
// function of the size, so start + xfer is the same float64 addition
// on the same operands as pricing every send, and keeps its bits.
func linkSend(busy, ready, xfer float64) float64 {
	start := ready
	if busy > start {
		start = busy
	}
	return start + xfer
}

// MinBinTimeoutSec is the smallest Binned timeout the front doors
// accept through CheckBinTimeout — engine.Spec.Resolve for one study,
// /v1/strategies and the scenario bin-timeout axis for a grid — the
// same 10 µs floor EWMABinned's prediction keeps. Binned.FinishTime
// steps through every bin of a block's arrival span, so its cost is
// span ÷ timeout; the floor bounds that for every built-in workload.
const MinBinTimeoutSec = DefaultEWMAMinTimeoutSec

// MaxBinsPerBlock caps how many bins one block's arrival span may cover
// at its timeout. Binned.FinishTime returns NaN for a block past it
// instead of stepping through every bin, and engine.Spec.Resolve
// refuses such a dataset up front with CheckBinSpan. At MinBinTimeoutSec it admits
// spans up to ~10 s, over 100x the widest block of the built-in
// workloads.
const MaxBinsPerBlock = 1 << 20

// CheckBinTimeout returns an error unless timeoutSec is a usable Binned
// timeout: a number no smaller than MinBinTimeoutSec.
func CheckBinTimeout(timeoutSec float64) error {
	if !(timeoutSec >= MinBinTimeoutSec) {
		return fmt.Errorf("bin timeout %g s is below the %g s floor", timeoutSec, MinBinTimeoutSec)
	}
	return nil
}

// CheckBinSpan returns an error when some process iteration of d spans
// more than MaxBinsPerBlock bins of timeoutSec — a dataset on which
// Binned.FinishTime would refuse that block. Generated workloads never
// do at an accepted timeout; engine.Spec.Resolve checks every
// dataset-backed spec (inline CSV, -in files) with it before analysis.
func CheckBinSpan(d *trace.Dataset, timeoutSec float64) error {
	var err error
	d.EachProcessIteration(func(trial, rank, iter int, xs []float64) {
		if err != nil || len(xs) == 0 {
			return
		}
		span := stats.Max(xs) - stats.Min(xs)
		if !(span/timeoutSec <= MaxBinsPerBlock) {
			err = fmt.Errorf("process iteration (trial %d, rank %d, iteration %d) spans %g s, more than %d bins of the %g s bin timeout",
				trial, rank, iter, span, MaxBinsPerBlock, timeoutSec)
		}
	})
	return err
}

// Binned aggregates ready partitions and flushes them as one message per
// timeout window (the "binning model for aggregating data" of Section 5),
// plus a final flush when the last thread arrives.
type Binned struct {
	// TimeoutSec is the flush period (> 0).
	TimeoutSec float64
}

// Name implements Strategy.
func (b Binned) Name() string { return fmt.Sprintf("binned(%gus)", b.TimeoutSec*1e6) }

// FinishTime implements Strategy. A block whose arrival span covers
// more than MaxBinsPerBlock bins (or a NaN timeout) is refused with NaN:
// the walk visits every bin, empty or not, so it would spin for
// span ÷ timeout steps.
//
// The walk goes arrival by arrival: an arrival past the open bin's
// flush time closes that bin (one message of its count) and steps the
// flush time over any empty bins to the bin that holds it. The flush
// times are the running sum arrivals[0] + T + T + …, each clamped to
// the last arrival, and every non-empty bin flushes at its own, in
// order, as stepping bin by bin does, and only one compare per arrival
// and one per empty bin decide where the bins end.
func (b Binned) FinishTime(arrivals []float64, bytesPerPart int, f network.Fabric) float64 {
	if len(arrivals) == 0 {
		return 0
	}
	if b.TimeoutSec <= 0 {
		return (Bulk{}).FinishTime(arrivals, bytesPerPart, f)
	}
	tmax := arrivals[len(arrivals)-1]
	if !((tmax-arrivals[0])/b.TimeoutSec <= MaxBinsPerBlock) {
		return math.NaN()
	}
	busy, done := 0.0, 0.0
	flush := arrivals[0] + b.TimeoutSec
	if flush > tmax {
		flush = tmax
	}
	count := 0
	for _, t := range arrivals {
		if t > flush {
			busy = linkSend(busy, flush, f.TransferTime(bytesPerPart*count))
			if busy > done {
				done = busy
			}
			count = 0
			for t > flush {
				if flush += b.TimeoutSec; flush > tmax {
					flush = tmax
				}
			}
		}
		count++
	}
	busy = linkSend(busy, flush, f.TransferTime(bytesPerPart*count))
	if busy > done {
		done = busy
	}
	return done
}

// Result summarises one strategy over a dataset.
type Result struct {
	Strategy string `json:"strategy"`
	// MeanFinishSec is the mean delivery-completion time per process
	// iteration.
	MeanFinishSec float64 `json:"mean_finish_sec"`
	// MeanOverlapSec is the mean of (bulk finish - strategy finish): the
	// communication time recovered by early-bird delivery (the green
	// boxes of the paper's Figure 2).
	MeanOverlapSec float64 `json:"mean_overlap_sec"`
	// SpeedupVsBulk is mean bulk finish / mean strategy finish.
	SpeedupVsBulk float64 `json:"speedup_vs_bulk"`
	// OverlapCapture is MeanOverlapSec divided by the study's mean
	// idealised per-thread overlap (PotentialOverlap): the fraction of
	// the theoretically reclaimable idle time the strategy recovers.
	// Zero when the potential is zero. Values above 1 are possible —
	// pipelining partitions onto the link also shortens the transfer
	// itself, a gain the per-thread idle bound does not count.
	OverlapCapture float64 `json:"overlap_capture,omitempty"`
}

// PotentialOverlap returns, for one process iteration, the idealised
// transmission time available before the last thread arrives if every
// partition could be sent immediately on arrival with an infinitely fast
// link — an upper bound on early-bird benefit equal to the paper's
// reclaimable time divided by the thread count.
func PotentialOverlap(arrivals []float64) float64 {
	if len(arrivals) == 0 {
		return 0
	}
	return meanLead(arrivals, stats.Max(arrivals))
}

// meanLead returns the mean of tmax - t over the non-empty arrivals.
// StrategyAccumulator passes a sorted block's last element as tmax,
// which gives PotentialOverlap's bits on a NaN-free block: where the
// maximum is a zero of either sign the terms differ at most in a zero's
// sign, which the sum, starting at +0, does not keep.
func meanLead(arrivals []float64, tmax float64) float64 {
	sum := 0.0
	for _, t := range arrivals {
		sum += tmax - t
	}
	return sum / float64(len(arrivals))
}

// String renders a result row in microseconds/milliseconds as
// appropriate.
func (r Result) String() string {
	return fmt.Sprintf("%-16s finish %8.3f ms  overlap %8.3f ms  speedup %5.3fx",
		r.Strategy, 1e3*r.MeanFinishSec, 1e3*r.MeanOverlapSec, r.SpeedupVsBulk)
}
