package partcomm

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"earlybird/internal/mpi"
	"earlybird/internal/network"
)

// Property: a partitioned transfer delivers the exact payload for any
// partition count and any ready-order permutation.
func TestPartitionedTransferPermutationProperty(t *testing.T) {
	check := func(rawParts uint8, rawPartSize uint8, perm []uint8) bool {
		parts := int(rawParts%15) + 1
		partSize := int(rawPartSize%64) + 1
		payload := make([]byte, parts*partSize)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		// Build a ready order from the permutation hints.
		order := make([]int, parts)
		for i := range order {
			order[i] = i
		}
		for i, p := range perm {
			j := int(p) % parts
			order[i%parts], order[j] = order[j], order[i%parts]
		}

		w := mpi.NewWorld(2)
		err := w.Run(func(c *mpi.Comm) error {
			if c.Rank() == 0 {
				ps, err := NewSend(c, 1, 2, payload, parts)
				if err != nil {
					return err
				}
				for _, i := range order {
					if err := ps.Pready(i); err != nil {
						return err
					}
				}
				return nil
			}
			pr, err := NewRecv(c, 0, 2, len(payload), parts)
			if err != nil {
				return err
			}
			if !bytes.Equal(pr.Wait(), payload) {
				return fmt.Errorf("payload mismatch")
			}
			return nil
		})
		return err == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: for any arrival set and sizes, every strategy finishes no
// earlier than the last arrival and no earlier than one partition's
// transfer past the first arrival.
func TestStrategyPhysicalBoundsProperty(t *testing.T) {
	f := network.OmniPath()
	strategies := []Strategy{
		Bulk{}, FineGrained{}, Binned{TimeoutSec: 1e-3}, CountThreshold{K: 4},
		&EWMABinned{Alpha: 0.2}, Hybrid{}, LaggardAware{ThresholdSec: 1e-3},
	}
	check := func(raw []uint16, rawSize uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		arrivals := make([]float64, len(raw))
		for i, r := range raw {
			arrivals[i] = float64(r) * 1e-6 // 0..65ms
		}
		sortFloat64s(arrivals)
		size := int(rawSize)%(1<<20) + 1
		last := arrivals[len(arrivals)-1]
		minFinish := last + f.TransferTime(size) - 1e-12
		for _, s := range strategies {
			if got := s.FinishTime(arrivals, size, f); got < minFinish {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func sortFloat64s(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// FuzzStrategyOrdering checks the strategy lab's ordering laws on
// arbitrary arrival vectors (each input byte is one arrival in 250 us
// steps, so vectors span 0..64 ms — the scale of the measured studies):
//
//  1. On a bandwidth-only fabric (no per-message latency or overhead),
//     fine-grained delivery never finishes after bulk: by induction the
//     k-th partition completes no later than t_max + k x (b/beta), whose
//     last term is exactly the bulk finish. (With per-message cost the
//     law genuinely fails for clustered arrivals — n messages pay n
//     latencies — which is the whole point of the binning strategies.)
//  2. Binned delivery with an effectively infinite timeout degenerates
//     to a single flush when the last thread arrives: exactly bulk.
//  3. Hybrid picks bulk or fine-grained per iteration, so it is never
//     worse than the slower of its two modes.
//  4. Every strategy — adaptive ones included — respects the physical
//     floor: the last partition cannot complete before the last arrival
//     plus one partition's wire time.
//  5. Every built-in strategy finishes at exactly the bits of the same
//     strategy written over the reference link (the oracle of
//     TestStrategiesBitIdenticalToLink), on both fabrics and at bin
//     timeouts of 0.25, 1 and 2 ms.
//
// CI runs this for a 10s smoke (make fuzz-smoke) on top of the corpus
// replay that plain `go test` performs.
func FuzzStrategyOrdering(f *testing.F) {
	f.Add([]byte{0}, uint16(1))
	f.Add([]byte{0, 0, 0, 0}, uint16(4096))         // fully clustered arrivals
	f.Add([]byte{1, 2, 3, 250}, uint16(1<<15))      // one dominant laggard
	f.Add([]byte{10, 20, 30, 40, 50}, uint16(9999)) // even spread
	f.Fuzz(func(t *testing.T, raw []byte, rawSize uint16) {
		if len(raw) == 0 {
			return
		}
		if len(raw) > 96 {
			raw = raw[:96]
		}
		arrivals := make([]float64, len(raw))
		for i, b := range raw {
			arrivals[i] = float64(b) * 250e-6
		}
		sortFloat64s(arrivals)
		size := int(rawSize)%(1<<20) + 1
		tmax := arrivals[len(arrivals)-1]

		// 1: fine-grained <= bulk without per-message cost.
		bwOnly := network.Fabric{BandwidthBytesPerSec: 12.5e9}
		fineBW := FineGrained{}.FinishTime(arrivals, size, bwOnly)
		bulkBW := Bulk{}.FinishTime(arrivals, size, bwOnly)
		if fineBW > bulkBW*(1+1e-12)+1e-15 {
			t.Errorf("bandwidth-only: fine-grained %v > bulk %v (arrivals %v, size %d)",
				fineBW, bulkBW, arrivals, size)
		}

		// 2: binned(t -> inf) == bulk on the real fabric.
		fab := network.OmniPath()
		bulk := Bulk{}.FinishTime(arrivals, size, fab)
		if binInf := (Binned{TimeoutSec: 3600}).FinishTime(arrivals, size, fab); binInf != bulk {
			t.Errorf("binned(inf) %v != bulk %v (arrivals %v, size %d)", binInf, bulk, arrivals, size)
		}

		// 3: hybrid <= max(bulk, fine-grained), exactly.
		fine := FineGrained{}.FinishTime(arrivals, size, fab)
		worse := bulk
		if fine > worse {
			worse = fine
		}
		if hy := (Hybrid{}).FinishTime(arrivals, size, fab); hy > worse {
			t.Errorf("hybrid %v > max(bulk %v, fine %v)", hy, bulk, fine)
		}

		// 4: physical floor for every strategy, adaptive included.
		floor := tmax + fab.TransferTime(size) - 1e-12
		for _, s := range []Strategy{
			Bulk{}, FineGrained{}, Binned{TimeoutSec: 1e-3}, CountThreshold{K: 4},
			&EWMABinned{Alpha: 0.2}, Hybrid{}, LaggardAware{ThresholdSec: 1e-3},
		} {
			if got := s.FinishTime(arrivals, size, fab); got < floor {
				t.Errorf("%s finish %v below physical floor %v (arrivals %v, size %d)",
					s.Name(), got, floor, arrivals, size)
			}
		}

		// 5: the same bits as the reference link.
		for _, fabric := range []network.Fabric{fab, bwOnly} {
			for _, timeout := range []float64{0.25e-3, 1e-3, 2e-3} {
				checkAgainstOracle(t, "fuzz", [][]float64{arrivals}, timeout, size, fabric)
			}
		}
	})
}
