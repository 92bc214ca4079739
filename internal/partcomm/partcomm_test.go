package partcomm

import (
	"bytes"
	"fmt"
	"testing"

	"earlybird/internal/mpi"
	"earlybird/internal/network"
	"earlybird/internal/trace"
)

func TestPartitionedTransferDelivers(t *testing.T) {
	w := mpi.NewWorld(2)
	payload := make([]byte, 64*16)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	err := w.Run(func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			ps, err := NewSend(c, 1, 3, payload, 16)
			if err != nil {
				return err
			}
			// Threads finish out of order: mark ready in a scrambled order.
			for _, i := range []int{5, 0, 15, 3, 8, 1, 2, 7, 4, 6, 9, 12, 10, 11, 14, 13} {
				if err := ps.Pready(i); err != nil {
					return err
				}
			}
			if ps.Pending() != 0 {
				return fmt.Errorf("pending = %d", ps.Pending())
			}
			return nil
		}
		pr, err := NewRecv(c, 0, 3, len(payload), 16)
		if err != nil {
			return err
		}
		got := pr.Wait()
		if !bytes.Equal(got, payload) {
			return fmt.Errorf("payload corrupted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestParrivedPolling(t *testing.T) {
	w := mpi.NewWorld(2)
	payload := make([]byte, 4*8)
	err := w.Run(func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			ps, _ := NewSend(c, 1, 1, payload, 4)
			c.Barrier() // phase 1: nothing sent yet
			if err := ps.Pready(2); err != nil {
				return err
			}
			c.Barrier() // phase 2: partition 2 sent
			c.Barrier() // phase 3: receiver checked
			for _, i := range []int{0, 1, 3} {
				if err := ps.Pready(i); err != nil {
					return err
				}
			}
			return nil
		}
		pr, _ := NewRecv(c, 0, 1, len(payload), 4)
		c.Barrier()
		c.Barrier()
		if ok, _ := pr.Parrived(2); !ok {
			return fmt.Errorf("partition 2 should have arrived")
		}
		if ok, _ := pr.Parrived(0); ok {
			return fmt.Errorf("partition 0 should not have arrived")
		}
		if pr.ArrivedCount() != 1 {
			return fmt.Errorf("arrived count = %d", pr.ArrivedCount())
		}
		c.Barrier()
		pr.Wait()
		if pr.ArrivedCount() != 4 {
			return fmt.Errorf("final arrived count = %d", pr.ArrivedCount())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPreadyValidation(t *testing.T) {
	w := mpi.NewWorld(2)
	c := w.Comm(0)
	ps, err := NewSend(c, 1, 0, make([]byte, 8), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Pready(4); err == nil {
		t.Error("out-of-range partition accepted")
	}
	if err := ps.Pready(-1); err == nil {
		t.Error("negative partition accepted")
	}
	if err := ps.Pready(1); err != nil {
		t.Fatal(err)
	}
	if err := ps.Pready(1); err == nil {
		t.Error("double Pready accepted")
	}
}

func TestNewSendRecvValidation(t *testing.T) {
	w := mpi.NewWorld(2)
	c := w.Comm(0)
	if _, err := NewSend(c, 1, 0, make([]byte, 10), 3); err == nil {
		t.Error("indivisible buffer accepted")
	}
	if _, err := NewSend(c, 1, 0, make([]byte, 8), 0); err == nil {
		t.Error("zero partitions accepted")
	}
	if _, err := NewRecv(c, 1, 0, 10, 3); err == nil {
		t.Error("indivisible size accepted")
	}
	if _, err := NewRecv(c, 1, 0, 8, tagStride); err == nil {
		t.Error("huge partition count accepted")
	}
}

// tinyDataset builds a dataset with prescribed arrival patterns.
func tinyDataset(rows [][]float64) *trace.Dataset {
	d := trace.NewDataset("tiny", 1, 1, len(rows), len(rows[0]))
	for i, row := range rows {
		copy(d.Times[0][0][i], row)
	}
	return d
}

func TestBulkFinish(t *testing.T) {
	f := network.Fabric{LatencySec: 1e-6, BandwidthBytesPerSec: 1e9}
	arr := []float64{1e-3, 2e-3, 3e-3}
	// tmax 3ms + (1us + 3000/1e9=3us) = 3.004ms
	got := (Bulk{}).FinishTime(arr, 1000, f)
	want := 3e-3 + 4e-6
	if diff := got - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("bulk = %v, want %v", got, want)
	}
}

func TestFineGrainedBeatsBulkOnSpreadArrivals(t *testing.T) {
	f := network.OmniPath()
	// Wide spread (MiniQMC-like): early-bird should finish earlier.
	arr := []float64{10e-3, 20e-3, 30e-3, 40e-3, 50e-3, 60e-3, 70e-3, 80e-3}
	const part = 1 << 20 // 1 MiB per partition: transfer matters
	bulk := (Bulk{}).FinishTime(arr, part, f)
	eb := (FineGrained{}).FinishTime(arr, part, f)
	if eb >= bulk {
		t.Fatalf("early-bird %v not faster than bulk %v on spread arrivals", eb, bulk)
	}
	// All but the last partition fit entirely before tmax, so the finish
	// should be close to tmax + one partition transfer.
	ideal := 80e-3 + f.TransferTime(part)
	if eb > ideal+1e-6 {
		t.Fatalf("early-bird %v worse than ideal %v", eb, ideal)
	}
}

func TestFineGrainedOnTightArrivalsNearBulk(t *testing.T) {
	f := network.OmniPath()
	// Tight arrivals (MiniMD phase 2-like): no room for overlap, and the
	// per-message overheads make fine-grained no better than bulk.
	arr := make([]float64, 48)
	for i := range arr {
		arr[i] = 24.74e-3 + float64(i)*1e-7
	}
	const part = 64 << 10
	bulk := (Bulk{}).FinishTime(arr, part, f)
	eb := (FineGrained{}).FinishTime(arr, part, f)
	// Overlap is bounded by the arrival spread (~5us) minus extra
	// per-message latencies; it must be tiny compared to the transfer.
	if bulk-eb > 1e-4*bulk+10e-6 {
		t.Fatalf("unexpected large overlap on tight arrivals: bulk %v eb %v", bulk, eb)
	}
}

func TestBinnedBetweenBulkAndFineGrained(t *testing.T) {
	f := network.OmniPath()
	arr := []float64{5e-3, 15e-3, 25e-3, 35e-3, 45e-3, 55e-3}
	const part = 1 << 20
	bulk := (Bulk{}).FinishTime(arr, part, f)
	eb := (FineGrained{}).FinishTime(arr, part, f)
	binned := (Binned{TimeoutSec: 10e-3}).FinishTime(arr, part, f)
	if binned > bulk+1e-9 {
		t.Fatalf("binned %v worse than bulk %v", binned, bulk)
	}
	if binned < eb-f.TransferTime(part) {
		t.Fatalf("binned %v implausibly better than fine-grained %v", binned, eb)
	}
}

func TestBinnedZeroTimeoutFallsBackToBulk(t *testing.T) {
	f := network.OmniPath()
	arr := []float64{1e-3, 2e-3}
	if (Binned{}).FinishTime(arr, 100, f) != (Bulk{}).FinishTime(arr, 100, f) {
		t.Fatal("zero timeout should behave like bulk")
	}
}

func TestStrategiesEmptyArrivals(t *testing.T) {
	f := network.OmniPath()
	for _, s := range []Strategy{Bulk{}, FineGrained{}, Binned{TimeoutSec: 1e-3}} {
		if got := s.FinishTime(nil, 100, f); got != 0 {
			t.Errorf("%s on empty arrivals = %v", s.Name(), got)
		}
	}
}

func TestEvaluateOrdering(t *testing.T) {
	// Laggard pattern (MiniFE-like): one thread 5ms late. Early-bird
	// should recover most of the transfer time of 47 partitions.
	rows := make([][]float64, 10)
	for i := range rows {
		row := make([]float64, 48)
		for j := range row {
			row[j] = 26.3e-3
		}
		row[47] = 31.3e-3
		rows[i] = row
	}
	d := tinyDataset(rows)
	f := network.OmniPath()
	const part = 1 << 20
	res := EvaluateStream(d.Cursor(), part, f, []Strategy{Bulk{}, FineGrained{}, Binned{TimeoutSec: 1e-3}})
	if res[0].Strategy != "bulk" {
		t.Fatalf("order: %+v", res)
	}
	if res[0].MeanOverlapSec < -1e-12 || res[0].MeanOverlapSec > 1e-12 {
		t.Errorf("bulk vs bulk overlap = %v", res[0].MeanOverlapSec)
	}
	if res[1].MeanOverlapSec <= 0 {
		t.Errorf("fine-grained overlap %v not positive with laggard", res[1].MeanOverlapSec)
	}
	if res[1].SpeedupVsBulk <= 1 {
		t.Errorf("fine-grained speedup %v <= 1", res[1].SpeedupVsBulk)
	}
	if res[2].MeanOverlapSec <= 0 {
		t.Errorf("binned overlap %v not positive with laggard", res[2].MeanOverlapSec)
	}
	for _, r := range res {
		if r.String() == "" {
			t.Error("empty render")
		}
	}
}

func TestPotentialOverlap(t *testing.T) {
	arr := []float64{1, 2, 3, 4}
	// Reclaimable = 6; / 4 threads = 1.5.
	if got := PotentialOverlap(arr); got != 1.5 {
		t.Fatalf("potential overlap = %v", got)
	}
	if PotentialOverlap(nil) != 0 {
		t.Fatal("empty arrivals should be 0")
	}
}

func TestBinnedNeverSlowerThanBulkProperty(t *testing.T) {
	f := network.OmniPath()
	patterns := [][]float64{
		{1e-3},
		{1e-3, 1e-3, 1e-3},
		{1e-3, 5e-3, 9e-3, 20e-3},
		{26.3e-3, 26.3e-3, 26.31e-3, 30e-3},
	}
	for _, arr := range patterns {
		for _, timeout := range []float64{0.1e-3, 1e-3, 10e-3} {
			bulk := (Bulk{}).FinishTime(arr, 4096, f)
			binned := (Binned{TimeoutSec: timeout}).FinishTime(arr, 4096, f)
			// Binning can add at most the extra per-message costs of its
			// flushes; with these sizes that is well under 2 * bulk's
			// message overhead per flush. It must never beat physics:
			// not earlier than the last arrival.
			if binned < arr[len(arr)-1] {
				t.Errorf("binned(%v) on %v finished %v before last arrival", timeout, arr, binned)
			}
			slack := float64(len(arr)) * (f.LatencySec + f.OverheadSec)
			if binned > bulk+slack {
				t.Errorf("binned(%v) on %v = %v far exceeds bulk %v", timeout, arr, binned, bulk)
			}
		}
	}
}
