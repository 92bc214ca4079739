package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"earlybird/internal/cluster"
	"earlybird/internal/serve"
	"earlybird/internal/share"
)

// fleetGeom is small enough for fast tests, wide enough (4 trials) to
// shard across 3 workers, and keeps the 48-thread sets the analysis is
// calibrated for.
func fleetGeom() cluster.Config {
	return cluster.Config{Trials: 4, Ranks: 2, Iterations: 8, Threads: 48, Seed: 2}
}

// newWorker starts one in-process study service.
func newWorker(t *testing.T) (*serve.Server, *httptest.Server) {
	t.Helper()
	s := serve.New(serve.Options{Workers: 4})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// newFleet builds a fleet over the given worker URLs.
func newFleet(t *testing.T, opts Options) *Fleet {
	t.Helper()
	f, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// collectSweep dispatches every cell of a sweep request to the fleet,
// concurrently, as a coordinator does, and returns rows indexed by cell.
// A cell the fleet cannot place fails the test.
func collectSweep(t *testing.T, f *Fleet, req serve.SweepRequest) map[int][]serve.SweepRow {
	t.Helper()
	cells, err := req.Cells()
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	rows := map[int][]serve.SweepRow{}
	share.FanOut(len(cells), min(cap(f.sem), len(cells)), func(i int) {
		row, ok := f.DispatchCell(context.Background(), cells[i])
		if !ok {
			t.Errorf("cell %d was not placed on any worker", cells[i].Index)
			return
		}
		mu.Lock()
		rows[row.Index] = append(rows[row.Index], row)
		mu.Unlock()
	})
	return rows
}

func TestNewValidation(t *testing.T) {
	cases := map[string]Options{
		"no peers":  {},
		"empty url": {Peers: []string{""}},
		"not http":  {Peers: []string{"worker-1:8080"}},
		"duplicate": {Peers: []string{"http://a:1", "http://a:1/"}},
	}
	for name, opts := range cases {
		if _, err := New(opts); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	f := newFleet(t, Options{Peers: []string{" http://a:1/ ", "http://b:2"}})
	if got := f.Workers(); got[0] != "http://a:1" || got[1] != "http://b:2" {
		t.Errorf("normalised peers %v", got)
	}
	if f.Healthy() != 2 {
		t.Errorf("fresh fleet healthy = %d, want 2 (optimistic)", f.Healthy())
	}
}

func TestSplitTrials(t *testing.T) {
	for _, c := range []struct {
		trials, k int
		want      []shardRange
	}{
		{4, 2, []shardRange{{0, 2}, {2, 4}}},
		{5, 3, []shardRange{{0, 1}, {1, 3}, {3, 5}}},
		{2, 5, []shardRange{{0, 1}, {1, 2}}}, // k capped at trials
		{3, 0, []shardRange{{0, 3}}},         // k floored at 1
	} {
		got := splitTrials(c.trials, c.k)
		if len(got) != len(c.want) {
			t.Fatalf("splitTrials(%d, %d) = %v, want %v", c.trials, c.k, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("splitTrials(%d, %d) = %v, want %v", c.trials, c.k, got, c.want)
			}
		}
	}
}

// TestRankDeterministicAndSpreading: the rendezvous ranking is stable
// for one key and spreads different keys across workers.
func TestRankDeterministicAndSpreading(t *testing.T) {
	f := newFleet(t, Options{Peers: []string{"http://a:1", "http://b:2", "http://c:3"}})
	a := f.rank(42, 0)
	b := f.rank(42, 0)
	for i := range a {
		if a[i].url != b[i].url {
			t.Fatal("ranking is not deterministic")
		}
	}
	first := map[string]int{}
	for h := uint64(0); h < 64; h++ {
		first[f.rank(h, 0)[0].url]++
	}
	if len(first) != 3 {
		t.Errorf("64 keys landed on %d workers, want all 3: %v", len(first), first)
	}
}

// TestProbe: live workers are healthy, dead ones are demoted, revived
// ones come back.
func TestProbe(t *testing.T) {
	_, live := newWorker(t)
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()

	f := newFleet(t, Options{Peers: []string{live.URL, dead.URL}})
	if got := f.Probe(context.Background()); got != 1 {
		t.Fatalf("healthy = %d, want 1", got)
	}
	snap := f.Snapshot()
	if snap.Peers != 2 || snap.Healthy != 1 {
		t.Fatalf("snapshot %+v", snap)
	}
	for _, w := range snap.Workers {
		if w.URL == live.URL && !w.Healthy {
			t.Error("live worker marked unhealthy")
		}
		if w.URL == dead.URL && w.Healthy {
			t.Error("dead worker marked healthy")
		}
	}
}

// TestFleetSweepMatchesSingleNode is the end-to-end exactness guarantee:
// a sweep sharded across 3 in-process workers returns rows bit-identical
// to the same sweep on one node for every moment-derived metric and the
// Table 1 row.
func TestFleetSweepMatchesSingleNode(t *testing.T) {
	_, w1 := newWorker(t)
	_, w2 := newWorker(t)
	_, w3 := newWorker(t)
	f := newFleet(t, Options{Peers: []string{w1.URL, w2.URL, w3.URL}})

	req := serve.SweepRequest{
		Apps:       []string{"minife", "miniqmc"},
		Geometries: []cluster.Config{fleetGeom()},
		Alphas:     []float64{0.05, 0.01},
	}
	rows := collectSweep(t, f, req)

	// Reference: the identical request answered by a single fresh node.
	_, ref := newWorker(t)
	body, _ := json.Marshal(req)
	resp, err := http.Post(ref.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	want := map[int]serve.SweepRow{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var r serve.SweepRow
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		want[r.Index] = r
	}
	if len(want) != 4 || len(rows) != 4 {
		t.Fatalf("cells: fleet %d, single-node %d, want 4", len(rows), len(want))
	}

	for idx, w := range want {
		got := rows[idx]
		if len(got) != 1 {
			t.Fatalf("cell %d emitted %d times", idx, len(got))
		}
		g := got[0]
		if g.Err != "" || w.Err != "" {
			t.Fatalf("cell %d errored: fleet %q single %q", idx, g.Err, w.Err)
		}
		if g.Shards < 2 {
			t.Errorf("cell %d used %d shards, want >= 2 (federated execution)", idx, g.Shards)
		}
		if g.Metrics.MeanMedianSec != w.Metrics.MeanMedianSec ||
			g.Metrics.LaggardFraction != w.Metrics.LaggardFraction ||
			g.Metrics.AvgReclaimableProcSec != w.Metrics.AvgReclaimableProcSec ||
			g.Metrics.IdleRatioProc != w.Metrics.IdleRatioProc ||
			g.Metrics.AvgReclaimableAppIterSec != w.Metrics.AvgReclaimableAppIterSec ||
			g.Metrics.IdleRatioAppIter != w.Metrics.IdleRatioAppIter {
			t.Errorf("cell %d metrics diverged:\nfleet  %+v\nsingle %+v", idx, g.Metrics, w.Metrics)
		}
		if g.Table1 != w.Table1 {
			t.Errorf("cell %d Table1 diverged: %+v vs %+v", idx, g.Table1, w.Table1)
		}
		if g.Recommendation != w.Recommendation {
			t.Errorf("cell %d recommendation %q vs %q", idx, g.Recommendation, w.Recommendation)
		}
	}

	snap := f.Snapshot()
	if snap.CellsMerged != 4 || snap.Failovers != 0 {
		t.Errorf("snapshot %+v", snap)
	}
}

// TestFleetSweepErrorRows: a request error (unknown app) comes back as
// an error row — once — exactly like local execution, without failover.
func TestFleetSweepErrorRows(t *testing.T) {
	_, w1 := newWorker(t)
	_, w2 := newWorker(t)
	f := newFleet(t, Options{Peers: []string{w1.URL, w2.URL}})

	rows := collectSweep(t, f, serve.SweepRequest{
		Apps:       []string{"minife", "nope"},
		Geometries: []cluster.Config{fleetGeom()},
	})
	if len(rows) != 2 {
		t.Fatalf("rows %d, want 2", len(rows))
	}
	if rows[0][0].Err != "" {
		t.Errorf("minife errored: %s", rows[0][0].Err)
	}
	if rows[1][0].Err == "" {
		t.Error("unknown app should produce an error row")
	}
	if snap := f.Snapshot(); snap.Failovers != 0 || snap.Healthy != 2 {
		t.Errorf("request errors must not demote workers: %+v", snap)
	}
}

// flakyWorker proxies a worker and kills it after its first successful
// shard: subsequent requests answer 502, simulating a process that died
// mid-sweep.
type flakyWorker struct {
	inner  http.Handler
	served atomic.Int64
}

func (fw *flakyWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/shard" || r.URL.Path == "/v1/strategies" {
		if fw.served.Add(1) > 1 {
			http.Error(w, "worker killed mid-sweep", http.StatusBadGateway)
			return
		}
	}
	fw.inner.ServeHTTP(w, r)
}

// TestFleetFailoverKilledWorker is the failover acceptance test: a fleet
// of 3 workers, one killed mid-sweep, must re-dispatch the dead worker's
// cells to the survivors and deliver every cell exactly once, error
// free. Run with -race in CI.
func TestFleetFailoverKilledWorker(t *testing.T) {
	_, w1 := newWorker(t)
	_, w2 := newWorker(t)
	sKill := serve.New(serve.Options{Workers: 4})
	flaky := &flakyWorker{inner: sKill.Handler()}
	w3 := httptest.NewServer(flaky)
	t.Cleanup(w3.Close)

	// Whole-cell shards (ShardsPerCell 1) pin each cell to one worker,
	// so the killed worker's remaining cells demonstrably re-dispatch.
	f := newFleet(t, Options{Peers: []string{w1.URL, w2.URL, w3.URL}, ShardsPerCell: 1})

	req := serve.SweepRequest{
		Apps:       []string{"minife", "minimd", "miniqmc"},
		Geometries: []cluster.Config{fleetGeom()},
		Alphas:     []float64{0.05, 0.02, 0.01},
	}
	cells, err := req.Cells()
	if err != nil {
		t.Fatal(err)
	}
	rows := collectSweep(t, f, req)

	if len(rows) != len(cells) {
		t.Fatalf("got %d cells, want %d", len(rows), len(cells))
	}
	for idx, rs := range rows {
		if len(rs) != 1 {
			t.Fatalf("cell %d delivered %d times, want exactly once", idx, len(rs))
		}
		if rs[0].Err != "" {
			t.Fatalf("cell %d errored after failover: %s", idx, rs[0].Err)
		}
	}
	snap := f.Snapshot()
	if flaky.served.Load() > 1 && snap.Failovers == 0 {
		t.Error("killed worker served traffic but no failover was recorded")
	}
	for _, w := range snap.Workers {
		if w.URL == w3.URL && flaky.served.Load() > 1 && w.Healthy {
			t.Error("killed worker still marked healthy")
		}
	}
	if snap.CellsMerged != int64(len(cells)) {
		t.Errorf("cells merged %d, want %d", snap.CellsMerged, len(cells))
	}
}

// TestCoordinatorNDJSONSweepWithKilledWorker drives the full coordinator
// path: a serve.Server with Options.Fleet streams /v1/sweep NDJSON while
// one of its 3 workers dies mid-sweep. The stream must complete with
// every cell exactly once and the stats endpoint must report the
// failover.
func TestCoordinatorNDJSONSweepWithKilledWorker(t *testing.T) {
	_, w1 := newWorker(t)
	_, w2 := newWorker(t)
	sKill := serve.New(serve.Options{Workers: 4})
	flaky := &flakyWorker{inner: sKill.Handler()}
	w3 := httptest.NewServer(flaky)
	t.Cleanup(w3.Close)

	f := newFleet(t, Options{Peers: []string{w1.URL, w2.URL, w3.URL}, ShardsPerCell: 1})
	coord := serve.New(serve.Options{Workers: 2, Fleet: f})
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(ts.Close)

	req := serve.SweepRequest{
		Apps:       []string{"minife", "minimd", "miniqmc"},
		Geometries: []cluster.Config{fleetGeom()},
		Alphas:     []float64{0.05, 0.01},
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	seen := map[int]int{}
	var indices []int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var row serve.SweepRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if row.Err != "" {
			t.Fatalf("cell %d errored: %s", row.Index, row.Err)
		}
		if len(row.ShardWorkers) == 0 {
			t.Errorf("cell %d was not federated", row.Index)
		}
		seen[row.Index]++
		indices = append(indices, row.Index)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	sort.Ints(indices)
	if len(seen) != 6 {
		t.Fatalf("stream delivered %d distinct cells (%v), want 6", len(seen), indices)
	}
	for idx, n := range seen {
		if n != 1 {
			t.Fatalf("cell %d delivered %d times", idx, n)
		}
	}

	// The stats endpoint reports the fleet section.
	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var stats serve.StatsResponse
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Fleet == nil {
		t.Fatal("stats missing fleet section")
	}
	if stats.Fleet.CellsDispatched != 6 {
		t.Errorf("cells dispatched %d, want 6", stats.Fleet.CellsDispatched)
	}
	if flaky.served.Load() > 1 && stats.Fleet.Failovers == 0 {
		t.Error("no failover recorded despite the killed worker")
	}
}

// TestCoordinatorLocalFallback: when every worker is dead, the
// coordinator runs cells itself — the sweep still completes, and the
// stats record the fallback.
func TestCoordinatorLocalFallback(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	f := newFleet(t, Options{Peers: []string{dead.URL}})
	f.Probe(context.Background()) // demotes the dead worker

	coord := serve.New(serve.Options{Workers: 2, Fleet: f})
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(ts.Close)

	body, _ := json.Marshal(serve.SweepRequest{
		Apps:       []string{"minife"},
		Geometries: []cluster.Config{fleetGeom()},
	})
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	n := 0
	for sc.Scan() {
		var row serve.SweepRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatal(err)
		}
		if row.Err != "" {
			t.Fatalf("local fallback errored: %s", row.Err)
		}
		if row.Shards != 0 || len(row.ShardWorkers) != 0 {
			t.Errorf("fallback row claims federation: %+v", row)
		}
		n++
	}
	if n != 1 {
		t.Fatalf("rows %d, want 1", n)
	}

	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var stats serve.StatsResponse
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Fleet == nil || stats.Fleet.LocalFallbacks != 1 {
		t.Fatalf("expected 1 local fallback, got %+v", stats.Fleet)
	}
}

// TestCoordinatorStrategiesFederate: a coordinator's /v1/strategies
// dispatches each cell whole to a fleet worker; every row comes back
// marked federated, with the frontier a single node computes for it.
func TestCoordinatorStrategiesFederate(t *testing.T) {
	_, w1 := newWorker(t)
	_, w2 := newWorker(t)
	f := newFleet(t, Options{Peers: []string{w1.URL, w2.URL}})
	coord := httptest.NewServer(serve.New(serve.Options{Workers: 2, Fleet: f}).Handler())
	t.Cleanup(coord.Close)

	req := serve.StrategiesRequest{
		Apps:       []string{"minife", "miniqmc"},
		Geometries: []cluster.Config{fleetGeom()},
	}
	postStrategies := func(url string) serve.StrategiesResponse {
		t.Helper()
		body, _ := json.Marshal(req)
		resp, err := http.Post(url+"/v1/strategies", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out serve.StrategiesResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	got := postStrategies(coord.URL)
	_, ref := newWorker(t)
	want := postStrategies(ref.URL)
	if len(got.Rows) != 2 || len(want.Rows) != 2 {
		t.Fatalf("rows: coordinator %d, single node %d, want 2", len(got.Rows), len(want.Rows))
	}
	for i, w := range want.Rows {
		g := got.Rows[i]
		if g.Err != "" || w.Err != "" {
			t.Fatalf("cell %d errored: coordinator %q single %q", i, g.Err, w.Err)
		}
		if !g.Federated || w.Federated {
			t.Errorf("cell %d: federated %v on the coordinator, %v on a single node", i, g.Federated, w.Federated)
		}
		if g.Index != i || !reflect.DeepEqual(g.Sweep, w.Sweep) {
			t.Errorf("cell %d frontier diverged: %s/%v vs %s/%v", i, g.Best, g.BestFinishSec, w.Best, w.BestFinishSec)
		}
	}
	if snap := f.Snapshot(); snap.CellsMerged != 2 {
		t.Errorf("fleet merged %d whole cells, want 2", snap.CellsMerged)
	}
}

// TestPostBoundsBody: the coordinator reads a 200 body into one buffer
// and refuses, as a worker fault, a body declared over maxResponseBytes
// or shorter than its Content-Length. A body without a Content-Length
// is read up to the cap.
func TestPostBoundsBody(t *testing.T) {
	payload := bytes.Repeat([]byte("record"), 1000)
	cases := []struct {
		name   string
		answer func(http.ResponseWriter)
		ok     bool
		why    string // in the error when !ok
	}{
		{"exact length", func(w http.ResponseWriter) {
			w.Header().Set("Content-Length", strconv.Itoa(len(payload)))
			w.Write(payload)
		}, true, ""},
		{"missing length", func(w http.ResponseWriter) {
			w.WriteHeader(http.StatusOK)
			w.(http.Flusher).Flush() // commits the header: the body goes out chunked
			w.Write(payload)
		}, true, ""},
		{"declared over cap", func(w http.ResponseWriter) {
			w.Header().Set("Content-Length", strconv.Itoa(maxResponseBytes+1))
			w.WriteHeader(http.StatusOK)
			w.Write(payload)
		}, false, "cap"},
		{"short body", func(w http.ResponseWriter) {
			w.Header().Set("Content-Length", strconv.Itoa(len(payload)+1))
			w.WriteHeader(http.StatusOK)
			w.Write(payload)
		}, false, "shorter than"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { c.answer(w) }))
			t.Cleanup(ts.Close)
			f := newFleet(t, Options{Peers: []string{ts.URL}})
			raw, retryable, err := f.post(context.Background(), f.workers[0], "/v1/shard", []byte("{}"))
			if c.ok {
				if err != nil || !bytes.Equal(raw, payload) {
					t.Fatalf("post = %d bytes, %v; want the %d-byte payload", len(raw), err, len(payload))
				}
				return
			}
			if err == nil || !retryable || !strings.Contains(err.Error(), c.why) {
				t.Fatalf("post = %d bytes, retryable %v, err %v; want a retryable worker fault (%s)", len(raw), retryable, err, c.why)
			}
		})
	}
}
