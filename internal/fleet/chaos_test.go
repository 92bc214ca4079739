// Chaos suite for the fleet layer: workers with injected latency,
// stalls, mid-stream disconnects and degraded capacity advertisements.
// The invariants under every fault mix: each sweep cell is delivered
// exactly once, merged results stay bit-identical to single-node
// execution, and capacity-weighted scheduling drains new placements
// around a degraded worker instead of hammering it. Run under -race via
// `make test-chaos`.

package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"earlybird/internal/cluster"
	"earlybird/internal/fnv"
	"earlybird/internal/serve"
)

// chaosWorker wraps a worker with deterministic fault injection on the
// shard path: per-request latency cycling through latencies, and
// mid-stream disconnects for the first aborts requests (a partial JSON
// body is written, then the connection is severed).
type chaosWorker struct {
	inner     http.Handler
	latencies []time.Duration
	aborts    int64

	requests atomic.Int64
	aborted  atomic.Int64
}

func (cw *chaosWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/shard" {
		cw.inner.ServeHTTP(w, r)
		return
	}
	n := cw.requests.Add(1)
	if len(cw.latencies) > 0 {
		time.Sleep(cw.latencies[int(n)%len(cw.latencies)])
	}
	if cw.aborted.Load() < cw.aborts {
		cw.aborted.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(`{"app":"mini`)) // mid-stream: valid prefix, then gone
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler)
	}
	cw.inner.ServeHTTP(w, r)
}

// stallingWorker never usefully answers the shard path: it holds the
// request open well past the fleet client's timeout — the worst
// failure mode, detectable only by timeout. The stall is bounded (not
// tied to the request context, whose cancellation the server may delay
// while the request body is unread) so the handler always returns and
// server shutdown never hangs.
type stallingWorker struct {
	inner    http.Handler
	stall    time.Duration
	requests atomic.Int64
}

func (sw *stallingWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/shard" {
		sw.inner.ServeHTTP(w, r)
		return
	}
	sw.requests.Add(1)
	select {
	case <-r.Context().Done():
	case <-time.After(sw.stall):
	}
	http.Error(w, "stalled", http.StatusServiceUnavailable)
}

// singleNodeRows answers req on one fresh worker — the bit-exactness
// reference.
func singleNodeRows(t *testing.T, req serve.SweepRequest) map[int]serve.SweepRow {
	t.Helper()
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
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// assertBitIdentical compares fleet rows against the single-node
// reference on every metric (the histogram-estimated IQR fields
// included), the Table 1 row and the recommendation.
func assertBitIdentical(t *testing.T, rows map[int][]serve.SweepRow, want map[int]serve.SweepRow) {
	t.Helper()
	if len(rows) != len(want) {
		t.Fatalf("cells: fleet %d, single-node %d", len(rows), len(want))
	}
	for idx, w := range want {
		rs := rows[idx]
		if len(rs) != 1 {
			t.Fatalf("cell %d delivered %d times, want exactly once", idx, len(rs))
		}
		g := rs[0]
		if g.Err != "" || w.Err != "" {
			t.Fatalf("cell %d errored: fleet %q single %q", idx, g.Err, w.Err)
		}
		if g.Metrics != w.Metrics { // the IQR fields included
			t.Errorf("cell %d metrics diverged:\nfleet  %+v\nsingle %+v", idx, g.Metrics, w.Metrics)
		}
		if g.Table1 != w.Table1 {
			t.Errorf("cell %d Table1 diverged: %+v vs %+v", idx, g.Table1, w.Table1)
		}
		if g.Recommendation != w.Recommendation {
			t.Errorf("cell %d recommendation %q vs %q", idx, g.Recommendation, w.Recommendation)
		}
	}
}

// TestChaosSweepSurvivesLatencyAndDisconnects: a fleet whose workers
// suffer injected latency and mid-stream disconnects still delivers
// every cell exactly once, bit-identical to single-node execution, and
// records the failovers.
func TestChaosSweepSurvivesLatencyAndDisconnects(t *testing.T) {
	s1 := serve.New(serve.Options{Workers: 4})
	slow := &chaosWorker{inner: s1.Handler(), latencies: []time.Duration{
		0, 2 * time.Millisecond, 5 * time.Millisecond, time.Millisecond, 8 * time.Millisecond,
	}}
	w1 := httptest.NewServer(slow)
	t.Cleanup(w1.Close)

	_, w2 := newWorker(t)

	s3 := serve.New(serve.Options{Workers: 4})
	dropper := &chaosWorker{inner: s3.Handler(), aborts: 2}
	w3 := httptest.NewServer(dropper)
	t.Cleanup(w3.Close)

	f := newFleet(t, Options{Peers: []string{w1.URL, w2.URL, w3.URL}})
	req := serve.SweepRequest{
		Apps:       []string{"minife", "minimd", "miniqmc"},
		Geometries: []cluster.Config{fleetGeom()},
		Alphas:     []float64{0.05, 0.01},
	}
	rows := collectSweep(t, f, req)
	assertBitIdentical(t, rows, singleNodeRows(t, req))

	snap := f.Snapshot()
	if got := dropper.aborted.Load(); got > 0 && snap.Failovers == 0 {
		t.Errorf("%d mid-stream disconnects but no failover recorded", got)
	}
	if snap.CellsFailed != 0 {
		t.Errorf("%d cells failed under recoverable chaos", snap.CellsFailed)
	}
}

// TestChaosSweepSurvivesStalledWorker: a worker that accepts shard
// requests and never answers is cut off by the client timeout, demoted,
// and its work re-dispatched — the sweep completes exactly.
func TestChaosSweepSurvivesStalledWorker(t *testing.T) {
	_, w1 := newWorker(t)
	_, w2 := newWorker(t)
	s3 := serve.New(serve.Options{Workers: 4})
	stall := &stallingWorker{inner: s3.Handler(), stall: 2 * time.Second}
	w3 := httptest.NewServer(stall)
	t.Cleanup(w3.Close)

	f := newFleet(t, Options{
		Peers:  []string{w1.URL, w2.URL, w3.URL},
		Client: &http.Client{Timeout: 500 * time.Millisecond},
	})
	req := serve.SweepRequest{
		Apps:       []string{"minife", "miniqmc"},
		Geometries: []cluster.Config{fleetGeom()},
		Alphas:     []float64{0.05, 0.01},
	}
	rows := collectSweep(t, f, req)
	assertBitIdentical(t, rows, singleNodeRows(t, req))

	// With speculation, a backup's win can return the cell before the
	// stalled attempt hits the client timeout, so the demotion may land
	// shortly after the sweep completes — poll for it.
	if stall.requests.Load() > 0 {
		deadline := time.Now().Add(3 * time.Second)
		for {
			snap := f.Snapshot()
			demoted := snap.Failovers > 0
			for _, ws := range snap.Workers {
				if ws.URL == w3.URL && ws.Healthy {
					demoted = false
				}
			}
			if demoted {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("stalled worker absorbed requests but was never demoted: %+v", snap)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}
}

// capacityOverride wraps a worker and rewrites its healthz body to
// advertise the given capacity — a degraded node as the probe sees it.
type capacityOverride struct {
	inner    http.Handler
	capacity float64
}

func (co *capacityOverride) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/healthz" {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"status":"ok","capacity":%g}`, co.capacity)
		return
	}
	co.inner.ServeHTTP(w, r)
}

// TestCapacityWeightedSchedulingDrains: after a probe reads one
// worker's degraded capacity, the rendezvous ranking routes new
// placements around it — the degraded worker wins far fewer keys than
// its healthy peers (its fair share scales with capacity), but not
// zero, and merged sweep results remain bit-identical regardless of
// the shifted placement.
func TestCapacityWeightedSchedulingDrains(t *testing.T) {
	_, w1 := newWorker(t)
	_, w2 := newWorker(t)
	s3 := serve.New(serve.Options{Workers: 4})
	degraded := &capacityOverride{inner: s3.Handler(), capacity: 0.05}
	w3 := httptest.NewServer(degraded)
	t.Cleanup(w3.Close)

	f := newFleet(t, Options{Peers: []string{w1.URL, w2.URL, w3.URL}})
	if got := f.Probe(context.Background()); got != 3 {
		t.Fatalf("healthy = %d, want 3 (degraded is slow, not down)", got)
	}
	for _, ws := range f.Snapshot().Workers {
		want := 1.0
		if ws.URL == w3.URL {
			want = 0.05
		}
		if ws.Capacity != want {
			t.Fatalf("worker %s capacity %v, want %v", ws.URL, ws.Capacity, want)
		}
	}

	// Placement statistics over many independent keys: the degraded
	// worker's first-rank share should be near its capacity fraction
	// 0.05/2.05 ~ 2.4%, and is asserted <= 10%; each healthy peer takes
	// roughly half of the rest.
	const keys = 400
	wins := map[string]int{}
	for h := uint64(0); h < keys; h++ {
		wins[f.rank(fnv.U64(fnv.Offset64, h), 0)[0].url]++
	}
	if got := wins[w3.URL]; got > keys/10 {
		t.Errorf("degraded worker won %d/%d keys, want <= %d", got, keys, keys/10)
	}
	if wins[w1.URL] < keys/4 || wins[w2.URL] < keys/4 {
		t.Errorf("healthy workers underloaded: %v", wins)
	}

	// The shifted placement must not change the answers.
	req := serve.SweepRequest{
		Apps:       []string{"minife", "miniqmc"},
		Geometries: []cluster.Config{fleetGeom()},
	}
	rows := collectSweep(t, f, req)
	assertBitIdentical(t, rows, singleNodeRows(t, req))
	if failed := f.Snapshot().CellsFailed; failed != 0 {
		t.Errorf("%d cells failed with a degraded-capacity worker", failed)
	}
}

// TestWeightedRankMatchesUnweightedAtFullCapacity pins the monotone-
// transform property the capacity weighting relies on: with every
// worker at full capacity, the weighted ranking is exactly the raw
// 64-bit rendezvous score order, so introducing capacity weighting
// changed no placement (and invalidated no worker's dataset cache) on
// a healthy fleet.
func TestWeightedRankMatchesUnweightedAtFullCapacity(t *testing.T) {
	f := newFleet(t, Options{Peers: []string{"http://a:1", "http://b:2", "http://c:3", "http://d:4"}})
	for h := uint64(0); h < 256; h++ {
		for shard := 0; shard < 3; shard++ {
			base := fnv.U64(fnv.U64(fnv.Offset64, h), uint64(shard))
			type scored struct {
				url   string
				score uint64
			}
			raw := make([]scored, len(f.workers))
			for i, w := range f.workers {
				raw[i] = scored{url: w.url, score: fnv.U64(base, w.urlHash)}
			}
			sort.Slice(raw, func(i, j int) bool {
				if raw[i].score != raw[j].score {
					return raw[i].score > raw[j].score
				}
				return raw[i].url < raw[j].url
			})
			weighted := f.rank(h, shard)
			for i := range raw {
				if weighted[i].url != raw[i].url {
					t.Fatalf("key %d shard %d: weighted rank %d is %s, raw-score order says %s",
						h, shard, i, weighted[i].url, raw[i].url)
				}
			}
		}
	}
}

// armableStraggler wraps a worker whose shard path, once armed, holds
// every request for stall before answering normally — a straggler that
// is slow, not dead. The stall is bounded so server shutdown never
// hangs, and the handler still answers afterwards so losing speculative
// attempts complete successfully and must be discarded idempotently.
type armableStraggler struct {
	inner   http.Handler
	stall   time.Duration
	armed   atomic.Bool
	stalled atomic.Int64
}

func (as *armableStraggler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/shard" && as.armed.Load() {
		as.stalled.Add(1)
		select {
		case <-r.Context().Done():
		case <-time.After(as.stall):
		}
	}
	as.inner.ServeHTTP(w, r)
}

// TestChaosSpeculationUnderStraggler is the speculative re-dispatch
// acceptance test: once the latency sketch is warm, a worker that turns
// into a straggler (shards held for ~1.2s against millisecond-scale
// peers) has its in-flight shards speculatively re-issued to the
// next-ranked worker; the first result wins, the sweep completes far
// inside the stall, every cell is delivered exactly once, the merged
// rows stay bit-identical to single-node execution, and the straggler
// — whose late answers are still successes — is never demoted.
func TestChaosSpeculationUnderStraggler(t *testing.T) {
	_, w1 := newWorker(t)
	_, w2 := newWorker(t)
	s3 := serve.New(serve.Options{Workers: 4})
	strag := &armableStraggler{inner: s3.Handler(), stall: 1200 * time.Millisecond}
	w3 := httptest.NewServer(strag)
	t.Cleanup(w3.Close)

	f := newFleet(t, Options{Peers: []string{w1.URL, w2.URL, w3.URL}, MaxInFlight: 16})

	// Phase 1 (straggler disarmed): warm the completed-shard latency
	// histogram past its minimum sample count so speculation can arm.
	warm := serve.SweepRequest{
		Apps:       []string{"minife", "miniqmc"},
		Geometries: []cluster.Config{fleetGeom()},
		Alphas:     []float64{0.05, 0.01},
	}
	assertBitIdentical(t, collectSweep(t, f, warm), singleNodeRows(t, warm))
	f.lat.mu.Lock()
	warmed := f.lat.hist.N()
	f.lat.mu.Unlock()
	if warmed < speculationMinSamples {
		t.Fatalf("latency histogram has %d samples after the warm sweep, want >= %d", warmed, speculationMinSamples)
	}

	// Phase 2: arm the straggler and sweep a fresh grid.
	strag.armed.Store(true)
	req := serve.SweepRequest{
		Apps:       []string{"minife", "minimd", "miniqmc"},
		Geometries: []cluster.Config{fleetGeom()},
		Alphas:     []float64{0.02, 0.03},
	}
	start := time.Now()
	rows := collectSweep(t, f, req)
	elapsed := time.Since(start)
	assertBitIdentical(t, rows, singleNodeRows(t, req))

	snap := f.Snapshot()
	if strag.stalled.Load() == 0 {
		t.Skip("rendezvous routed no shard to the straggler (legal placement); nothing to speculate on")
	}
	if snap.Speculations == 0 {
		t.Fatalf("straggler held %d shards but no speculation was issued (sweep took %s)", strag.stalled.Load(), elapsed)
	}
	if snap.SpeculationWins == 0 {
		t.Fatalf("%d speculations, none won against a %s stall", snap.Speculations, strag.stall)
	}
	if snap.Failovers != 0 {
		t.Errorf("%d failovers under pure straggling, want 0 (slow is not dead)", snap.Failovers)
	}
	for _, ws := range snap.Workers {
		if !ws.Healthy {
			t.Errorf("worker %s demoted; a straggler's late successes must not demote it", ws.URL)
		}
	}
}

// TestChaosMidSweepMembershipChurn: workers join and leave while a
// sweep is in flight on a dynamic fleet. Whatever the interleaving,
// every cell is delivered exactly once and the merged rows stay
// bit-identical to single-node execution.
func TestChaosMidSweepMembershipChurn(t *testing.T) {
	_, w1 := newWorker(t)
	_, w2 := newWorker(t)
	f := newFleet(t, Options{Peers: []string{w1.URL}, Dynamic: true, MaxInFlight: 4})

	req := serve.SweepRequest{
		Apps:       []string{"minife", "minimd", "miniqmc"},
		Geometries: []cluster.Config{fleetGeom()},
		Alphas:     []float64{0.05, 0.02, 0.01},
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(10 * time.Millisecond)
		if _, err := f.Join(w2.URL, 0); err != nil {
			t.Errorf("mid-sweep join: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
		f.Leave(w1.URL) // its in-flight shards complete; new ones route to w2
	}()
	rows := collectSweep(t, f, req)
	<-done
	assertBitIdentical(t, rows, singleNodeRows(t, req))
	if got := f.Workers(); len(got) != 1 || got[0] != w2.URL {
		t.Fatalf("registry after churn: %v", got)
	}
	if failed := f.Snapshot().CellsFailed; failed != 0 {
		t.Errorf("%d cells failed under membership churn", failed)
	}
}

// TestSetCapacityClamps pins the capacity sanitisation: garbage from a
// healthz body can never zero a worker out of the ranking or inflate
// it beyond full weight.
func TestSetCapacityClamps(t *testing.T) {
	w := &worker{}
	for _, c := range []struct{ in, want float64 }{
		{0.5, 0.5},
		{1, 1},
		{0, 1},  // absent/zero means full weight
		{-3, 1}, // nonsense resets to full
		{7, 1},  // > 1 resets to full
		{math.NaN(), 1},
		{0.001, minCapacity}, // floored
	} {
		w.setCapacity(c.in)
		if got := w.capacity(); got != c.want {
			t.Errorf("setCapacity(%v) -> %v, want %v", c.in, got, c.want)
		}
	}
}

// dataFaultWorker answers every shard request over a healthy transport
// with a record that is wrong in one way: reroute rewrites the request
// before the real worker runs it (another cell's or trial range's
// record comes back, validly sealed), corrupt rewrites the sealed
// record after it. The body always goes out with a Content-Length that
// matches what is sent, so only the record's own checks can catch it.
type dataFaultWorker struct {
	inner   http.Handler
	reroute func(*serve.ShardRequest)
	corrupt func([]byte) []byte
	faults  atomic.Int64
}

func (dw *dataFaultWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/shard" {
		dw.inner.ServeHTTP(w, r)
		return
	}
	if dw.reroute != nil {
		var req serve.ShardRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		dw.reroute(&req)
		body, _ := json.Marshal(req)
		r.Body = io.NopCloser(bytes.NewReader(body))
		r.ContentLength = int64(len(body))
	}
	rec := httptest.NewRecorder()
	dw.inner.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	if rec.Code == http.StatusOK {
		dw.faults.Add(1)
		if dw.corrupt != nil {
			body = dw.corrupt(bytes.Clone(body))
		}
	}
	for k, v := range rec.Header() {
		w.Header()[k] = v
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(rec.Code)
	w.Write(body)
}

// getBody GETs url and hands the 200 body to check.
func getBody(t *testing.T, url string, check func([]byte) error) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s, %v", url, resp.Status, err)
	}
	if err := check(b); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// TestChaosDataFaultsNeverMerge: a worker whose answers arrive intact
// on the transport but carry a flipped bit, a truncated record, another
// cell's record or another trial range's record is caught by the record
// checks before anything merges. Each bad record counts as a shard
// reject, demotes its worker and fails over, and the sweep still
// matches single-node execution bit for bit. Speculation is off, so
// every record the worker sends is decoded and counted.
func TestChaosDataFaultsNeverMerge(t *testing.T) {
	faults := map[string]*dataFaultWorker{
		"bit flip": {corrupt: func(b []byte) []byte {
			b[len(b)/2] ^= 0x04
			return b
		}},
		"truncated": {corrupt: func(b []byte) []byte { return b[:len(b)-len(b)/3] }},
		"other cell": {reroute: func(req *serve.ShardRequest) {
			g := *req.Geometry
			g.Seed++
			req.Geometry = &g
		}},
		"other trial range": {reroute: func(req *serve.ShardRequest) {
			if req.TrialLo > 0 {
				req.TrialLo, req.TrialHi = req.TrialLo-1, req.TrialHi-1
			} else {
				req.TrialLo, req.TrialHi = req.TrialLo+1, req.TrialHi+1
			}
		}},
	}
	req := serve.SweepRequest{
		Apps:       []string{"minife", "minimd", "miniqmc"},
		Geometries: []cluster.Config{fleetGeom()},
		Alphas:     []float64{0.05, 0.01},
	}
	want := singleNodeRows(t, req)
	for name, bad := range faults {
		t.Run(name, func(t *testing.T) {
			_, w1 := newWorker(t)
			_, w2 := newWorker(t)
			bad.inner = serve.New(serve.Options{Workers: 4}).Handler()
			w3 := httptest.NewServer(bad)
			t.Cleanup(w3.Close)

			f := newFleet(t, Options{Peers: []string{w1.URL, w2.URL, w3.URL}, SpeculationQuantile: -1})
			rows := collectSweep(t, f, req)
			assertBitIdentical(t, rows, want)
			faulted := bad.faults.Load()
			if faulted == 0 {
				t.Skip("rendezvous routed no shard to the faulty worker (legal placement); nothing to reject")
			}
			snap := f.Snapshot()
			if snap.ShardRejects != faulted {
				t.Errorf("shard_rejects = %d, want one per bad record (%d)", snap.ShardRejects, faulted)
			}
			if snap.Failovers < faulted || snap.CellsFailed != 0 {
				t.Errorf("failovers %d (want >= %d), cells failed %d", snap.Failovers, faulted, snap.CellsFailed)
			}
			for _, ws := range snap.Workers {
				if ws.URL == w3.URL && (ws.Healthy || ws.Shards != 0) {
					t.Errorf("faulty worker healthy=%v with %d accepted shards; want demoted, none accepted", ws.Healthy, ws.Shards)
				}
			}
			for idx, rs := range rows {
				for _, u := range rs[0].ShardWorkers {
					if u == w3.URL {
						t.Errorf("cell %d merged state from the faulty worker", idx)
					}
				}
			}

			// A coordinator serving this fleet reports the rejects in
			// /v1/stats and /metrics.
			coord := httptest.NewServer(serve.New(serve.Options{Workers: 2, Fleet: f}).Handler())
			t.Cleanup(coord.Close)
			var stats serve.StatsResponse
			getBody(t, coord.URL+"/v1/stats", func(b []byte) error { return json.Unmarshal(b, &stats) })
			if stats.Fleet == nil || stats.Fleet.ShardRejects != faulted {
				t.Errorf("/v1/stats fleet section %+v, want shard_rejects %d", stats.Fleet, faulted)
			}
			want := fmt.Sprintf("earlybird_fleet_shard_rejects_total %d\n", faulted)
			getBody(t, coord.URL+"/metrics", func(b []byte) error {
				if !bytes.Contains(b, []byte(want)) {
					t.Errorf("/metrics lacks %q", want)
				}
				return nil
			})
		})
	}
}
