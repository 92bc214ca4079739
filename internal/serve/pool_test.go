package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sync"
	"testing"

	"earlybird/internal/analysis"
	"earlybird/internal/cluster"
)

// shardRecord posts req to a /v1/shard endpoint from any goroutine and
// returns the 200 answer's bytes.
func shardRecord(url string, req ShardRequest) ([]byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(url+"/v1/shard", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	rec, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %s: %s", resp.Status, rec)
	}
	return rec, err
}

// TestConcurrentShardsMatchSerialServer pins that pooled histogram
// counts and record buffers never leak between exchanges: 16 concurrent
// shards of distinct seeds on one Workers: 4 server each answer the
// bytes a fresh server answers running them one at a time. make race
// runs it under the race detector.
func TestConcurrentShardsMatchSerialServer(t *testing.T) {
	const shards = 16
	reqs := make([]ShardRequest, shards)
	for i := range reqs {
		geom := cluster.Config{Trials: 2, Ranks: 4, Iterations: 30, Threads: 48, Seed: uint64(100 + i)}
		reqs[i] = ShardRequest{App: []string{"minife", "minimd", "miniqmc"}[i%3], Geometry: &geom, TrialLo: i % 2, TrialHi: 2}
	}
	want := make([][]byte, shards)
	serial := newHTTPServer(t, New(Options{Workers: 1}))
	for i, req := range reqs {
		var err error
		if want[i], err = shardRecord(serial.URL, req); err != nil {
			t.Fatal(err)
		}
	}
	ts := newHTTPServer(t, New(Options{Workers: 4}))
	got := make([][]byte, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = shardRecord(ts.URL, req)
		}()
	}
	wg.Wait()
	for i := range reqs {
		if errs[i] != nil {
			t.Fatalf("shard %d: %v", i, errs[i])
		}
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("shard %d (%s seed %d): concurrent record differs from the serial server's", i, reqs[i].App, reqs[i].Geometry.Seed)
		}
	}
}

// shardRoundTripAllocBound is the most one warm 1x8x200x48 shard round
// trip may allocate (TestShardRoundTripAllocationBounded). It measured
// 73–75 KiB, nearly all of it the accumulators' own state: the fold's
// iteration histograms and partials, their decoded copies and
// Finalize's per-iteration sums. It was about 1.7 MiB while every
// exchange allocated its histogram counts and record buffers and the
// worker filled a dataset for the engine's cache.
const shardRoundTripAllocBound = 80 << 10

// TestShardRoundTripAllocationBounded pins that a warm shard exchange
// leaves almost no garbage: the worker's fold, record and release, the
// coordinator's Accept, Merge and Row, of one 1x8x200x48 trial shard,
// allocate under shardRoundTripAllocBound, with the record buffer
// reused as handleShard and the fleet's readBody reuse theirs. The
// least of three batches counts, so an allocation elsewhere in the
// process does not. Skipped under -race, whose pools drop entries at
// random.
func TestShardRoundTripAllocationBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("pools drop entries at random under -race")
	}
	s := New(Options{Workers: 1})
	geom := cluster.Config{Trials: 1, Ranks: 8, Iterations: 200, Threads: 48, Seed: 1}
	cell := SweepCell{App: "minife", Geometry: geom, Alpha: 0.05, LaggardThresholdSec: analysis.DefaultLaggardThresholdSec}
	req, err := cell.ShardRequest().Resolve()
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	var row SweepRow
	roundTrip := func() {
		f, err := s.runShard(req)
		if err != nil {
			t.Fatal(err)
		}
		if buf, err = AppendShardRecord(buf[:0], f.hdrs[0], f.metrics[0], f.table1[0]); err != nil {
			t.Fatal(err)
		}
		f.release()
		st, err := req.Accept(buf)
		if err != nil {
			t.Fatal(err)
		}
		m := analysis.NewMetricsAccumulator(cell.App, cell.LaggardThresholdSec)
		tb := analysis.NewTable1Accumulator(cell.App, cell.Alpha)
		m.Merge(st.Metrics)
		st.Metrics.Release()
		tb.Merge(st.Table1)
		row = cell.Row(m, tb)
	}
	roundTrip()
	want := row
	const runs = 8
	perTrip := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			roundTrip()
		}
		runtime.ReadMemStats(&after)
		perTrip = min(perTrip, (after.TotalAlloc-before.TotalAlloc)/runs)
	}
	t.Logf("%.1f KiB allocated per round trip", float64(perTrip)/1024)
	if perTrip > shardRoundTripAllocBound {
		t.Errorf("a warm shard round trip allocated %d bytes, over %d", perTrip, shardRoundTripAllocBound)
	}
	if row.Metrics != want.Metrics || row.Table1 != want.Table1 {
		t.Errorf("a warm round trip answered another row: %+v %+v, first %+v %+v", row.Metrics, row.Table1, want.Metrics, want.Table1)
	}
}
