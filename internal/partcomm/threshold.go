package partcomm

import (
	"fmt"

	"earlybird/internal/network"
)

// CountThreshold flushes accumulated ready partitions whenever at least
// K of them are pending, plus a final flush when the last thread
// arrives. It is the count-based dual of the Binned timeout strategy:
// instead of "ship whatever is ready every T", it is "ship as soon as K
// portions are worth a message" — an aggregation policy discussed for
// early-bird runtimes that amortises per-message cost without a timer.
type CountThreshold struct {
	// K is the flush threshold in partitions (>= 1).
	K int
}

// Name implements Strategy.
func (c CountThreshold) Name() string { return fmt.Sprintf("every%d", c.K) }

// FinishTime implements Strategy. Every flush but the last carries K
// partitions, so that size is priced once for the block.
func (c CountThreshold) FinishTime(arrivals []float64, bytesPerPart int, f network.Fabric) float64 {
	if len(arrivals) == 0 {
		return 0
	}
	k := c.K
	if k < 1 {
		k = 1
	}
	xferK := f.TransferTime(bytesPerPart * k)
	busy, done := 0.0, 0.0
	pending := 0
	for i, t := range arrivals {
		pending++
		last := i == len(arrivals)-1
		if pending >= k || last {
			// The flush happens when the triggering partition arrives.
			xfer := xferK
			if pending != k {
				xfer = f.TransferTime(bytesPerPart * pending)
			}
			busy = linkSend(busy, t, xfer)
			if busy > done {
				done = busy
			}
			pending = 0
		}
	}
	return done
}
