// Regression tests for the 503 misclassification: a worker whose
// adaptive admission sheds with 503 + Retry-After is busy, not dead. It
// must keep its registry slot and ranking, never count as a failover,
// and re-enter dispatch the moment its Retry-After window lapses.

package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"earlybird/internal/cluster"
	"earlybird/internal/serve"
	"earlybird/internal/telemetry"
)

// shedTracker builds a synthetic in-flight study whose live efficiency
// (0.1) sits below any reasonable admission watermark and whose EWMA
// fill rate yields an ETA of ~1s — so the worker sheds with the
// smallest possible Retry-After and a test can wait it out.
func shedTracker(id string) *telemetry.Tracker {
	base := time.Unix(1700000000, 0)
	now := base
	tr := telemetry.NewWithClock(telemetry.StudyInfo{
		ID: id, App: "synthetic", Trials: 10, Ranks: 1, Iterations: 1, Workers: 1,
	}, func() time.Time { return now })
	for i := 0; i < 9; i++ {
		tr.ObserveFill(1, 100*time.Millisecond)
	}
	now = base.Add(9 * time.Second)
	tr.Snapshot() // prime the EWMA: 1 block/s over 9s -> 1 block left, ETA 1s
	return tr
}

// sheddingWorker starts a real worker whose adaptive admission is
// currently refusing all materialising work (efficiency 0.1 under a 0.5
// watermark). Finishing the returned tracker reopens admission.
func sheddingWorker(t *testing.T) (*serve.Server, *httptest.Server, *telemetry.Tracker) {
	t.Helper()
	s := serve.New(serve.Options{Workers: 4, AdmissionWatermark: 0.5})
	tr := shedTracker("shed-regression")
	s.Telemetry().Register(tr)
	if eff, live := s.Telemetry().Efficiency(); !live || eff >= 0.5 {
		t.Fatalf("synthetic efficiency = %v (live %v), want < 0.5", eff, live)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, tr
}

// TestShedWorkerNeverDemotedAndReRanked is the headline regression: the
// fleet's only worker sheds every shard with 503 + Retry-After. The
// cell cannot be placed — but the worker must stay healthy (busy, not
// demoted, no failover recorded), and once its admission reopens and
// the Retry-After window lapses it must take the very next dispatch.
func TestShedWorkerNeverDemotedAndReRanked(t *testing.T) {
	ws, wts, tr := sheddingWorker(t)
	f := newFleet(t, Options{Peers: []string{wts.URL}, ShardsPerCell: 1})

	cell := serve.SweepCell{App: "minife", Geometry: fleetGeom(), Alpha: 0.05, LaggardThresholdSec: 0.001}
	if _, ok := f.DispatchCell(context.Background(), cell); ok {
		t.Fatal("cell placed despite the only worker shedding")
	}

	snap := f.Snapshot()
	if snap.Sheds < 1 {
		t.Fatalf("fleet shed counter = %d, want >= 1", snap.Sheds)
	}
	if snap.Failovers != 0 {
		t.Fatalf("sheds recorded %d failovers, want 0 (shed is not death)", snap.Failovers)
	}
	w := snap.Workers[0]
	if !w.Healthy {
		t.Fatal("shedding worker was demoted")
	}
	if !w.Busy || w.BusyForSec <= 0 {
		t.Fatalf("shedding worker not marked busy: %+v", w)
	}
	if w.Sheds < 1 {
		t.Fatalf("worker shed counter = %d, want >= 1", w.Sheds)
	}
	if f.Healthy() != 1 {
		t.Fatalf("healthy = %d, want 1 (busy workers are alive)", f.Healthy())
	}

	// Reopen admission and wait out the Retry-After: the worker must
	// re-enter the ranking where the hash put it and serve the cell.
	ws.Telemetry().Finish(tr)
	deadline := time.Now().Add(10 * time.Second)
	for {
		row, ok := f.DispatchCell(context.Background(), cell)
		if ok {
			if row.Err != "" {
				t.Fatalf("re-ranked dispatch errored: %s", row.Err)
			}
			if len(row.ShardWorkers) != 1 || row.ShardWorkers[0] != wts.URL {
				t.Fatalf("cell served by %v, want the recovered worker", row.ShardWorkers)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never re-entered the ranking after Retry-After elapsed")
		}
		time.Sleep(100 * time.Millisecond)
	}
	snap = f.Snapshot()
	if !snap.Workers[0].Healthy || snap.Failovers != 0 {
		t.Fatalf("recovery left bad state: %+v", snap)
	}
}

// TestShedFailsOverToPeersAndSurfacesStats: with a healthy peer
// alongside the shedding worker, every cell completes on the peer, no
// failover is recorded, and the coordinator's /v1/stats surfaces the
// shed counters.
func TestShedFailsOverToPeersAndSurfacesStats(t *testing.T) {
	_, wShed, _ := sheddingWorker(t)
	_, wOK := newWorker(t)
	f := newFleet(t, Options{Peers: []string{wShed.URL, wOK.URL}, ShardsPerCell: 1})

	req := serve.SweepRequest{
		Apps:       []string{"minife", "minimd", "miniqmc"},
		Geometries: []cluster.Config{fleetGeom()},
		Alphas:     []float64{0.05, 0.01},
	}
	rows := collectSweep(t, f, req)
	assertBitIdentical(t, rows, singleNodeRows(t, req))
	for idx, rs := range rows {
		if rs[0].ShardWorkers[0] != wOK.URL {
			t.Errorf("cell %d served by %v, want the healthy peer", idx, rs[0].ShardWorkers)
		}
	}

	// Placement is hash-driven, so the shedding worker may not have been
	// ranked first for any sweep cell yet; dispatch fresh cells (distinct
	// alphas, distinct hashes) until one routes to it and sheds.
	for i := 0; f.Snapshot().Sheds == 0; i++ {
		if i >= 50 {
			t.Fatal("no cell ever routed to the shedding worker")
		}
		cell := serve.SweepCell{App: "minife", Geometry: fleetGeom(), Alpha: 0.001 + float64(i)*0.0001, LaggardThresholdSec: 0.001}
		if row, ok := f.DispatchCell(context.Background(), cell); !ok || row.Err != "" {
			t.Fatalf("probe cell %d failed: ok=%v %+v", i, ok, row)
		}
	}

	snap := f.Snapshot()
	if snap.Failovers != 0 {
		t.Fatalf("%d failovers recorded, want 0 (sheds must not demote)", snap.Failovers)
	}
	for _, w := range snap.Workers {
		if !w.Healthy {
			t.Errorf("worker %s demoted", w.URL)
		}
	}

	// The coordinator's stats endpoint carries the new counters.
	coord := serve.New(serve.Options{Workers: 2, Fleet: f})
	cts := httptest.NewServer(coord.Handler())
	t.Cleanup(cts.Close)
	resp, err := http.Get(cts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats serve.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Fleet == nil || stats.Fleet.Sheds < 1 {
		t.Fatalf("stats missing shed counter: %+v", stats.Fleet)
	}
	found := false
	for _, w := range stats.Fleet.Workers {
		if w.URL == wShed.URL && w.Sheds >= 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("per-worker shed counter missing: %+v", stats.Fleet.Workers)
	}
}

// TestPlain503StillDemotes pins the classification boundary: a 503
// WITHOUT a parseable Retry-After is an unexplained worker fault (what
// a stalled or misconfigured worker emits), and must keep demoting.
func TestPlain503StillDemotes(t *testing.T) {
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no hint", http.StatusServiceUnavailable)
	}))
	t.Cleanup(broken.Close)
	f := newFleet(t, Options{Peers: []string{broken.URL}, ShardsPerCell: 1})

	cell := serve.SweepCell{App: "minife", Geometry: fleetGeom(), Alpha: 0.05, LaggardThresholdSec: 0.001}
	if _, ok := f.DispatchCell(context.Background(), cell); ok {
		t.Fatal("cell placed on a plain-503 worker")
	}
	snap := f.Snapshot()
	if snap.Sheds != 0 {
		t.Errorf("plain 503 counted as a shed: %+v", snap)
	}
	if snap.Failovers == 0 {
		t.Error("plain 503 did not count as a worker fault")
	}
	if snap.Workers[0].Healthy {
		t.Error("plain-503 worker was not demoted")
	}
}

func TestParseRetryAfter(t *testing.T) {
	for _, c := range []struct {
		in   string
		want time.Duration
		ok   bool
	}{
		{"1", time.Second, true},
		{" 30 ", 30 * time.Second, true},
		{"0", time.Second, true}, // floored: an immediate retry hint still backs off
		{"", 0, false},
		{"-5", 0, false},
		{"soon", 0, false},
		{"Wed, 21 Oct 2015 07:28:00 GMT", 0, false}, // HTTP-date form unsupported
		{"+5", 0, false},                            // delta-seconds is digits only
		{"9300000000", maxRetryAfter, true},         // used to overflow to -2,540,762 h
		{"18446744073", maxRetryAfter, true},        // used to overflow to -709 ms
	} {
		got, ok := parseRetryAfter(c.in)
		if got != c.want || ok != c.ok {
			t.Errorf("parseRetryAfter(%q) = %v, %v; want %v, %v", c.in, got, ok, c.want, c.ok)
		}
	}
}

// maxDecodeWall is the per-input wall bound of FuzzParseRetryAfter, the
// bound the repository's other decoder fuzzers use.
const maxDecodeWall = time.Second

// FuzzParseRetryAfter: a worker's Retry-After header is untrusted
// bytes. Parsing must not panic or take longer than maxDecodeWall; an
// accepted value is a whole number of seconds in (0, maxRetryAfter],
// and its delta-seconds rendering parses back to itself.
func FuzzParseRetryAfter(f *testing.F) {
	for _, seed := range []string{
		"1", " 30 ", "0", "60", "300", "301", "", "-5", "+5", "soon", "1e3", "0x10",
		"9300000000", "18446744073", "Wed, 21 Oct 2015 07:28:00 GMT",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, h string) {
		start := time.Now()
		d, ok := parseRetryAfter(h)
		if wall := time.Since(start); wall > maxDecodeWall {
			t.Fatalf("parseRetryAfter took %v on %d bytes, over the %v bound", wall, len(h), maxDecodeWall)
		}
		if !ok {
			return
		}
		if d <= 0 || d > maxRetryAfter || d%time.Second != 0 {
			t.Fatalf("parseRetryAfter(%q) = %v, want whole seconds in (0, %v]", h, d, maxRetryAfter)
		}
		text := strconv.FormatInt(int64(d/time.Second), 10)
		if back, ok := parseRetryAfter(text); !ok || back != d {
			t.Fatalf("parseRetryAfter(%q) = %v renders %q, which parses back as %v, %v", h, d, text, back, ok)
		}
	})
}

// TestNotPlacedMessage pins the enriched errNotPlaced: cell hash, shard
// index and per-worker health/busy states, with sane degradations when
// routing context or workers are absent.
func TestNotPlacedMessage(t *testing.T) {
	f := newFleet(t, Options{Peers: []string{"http://a:1", "http://b:2"}})
	f.workers[0].healthy.Store(false)
	f.workers[1].markBusy(time.Now().Add(5 * time.Second))

	msg := f.notPlaced(0xabc, 2, nil).Error()
	for _, want := range []string{"cell 0000000000000abc", "shard 2", "http://a:1 unhealthy", "http://b:2 healthy busy("} {
		if !strings.Contains(msg, want) {
			t.Errorf("errNotPlaced missing %q:\n%s", want, msg)
		}
	}
	if strings.Contains(msg, "last failure") {
		t.Errorf("nil cause rendered: %s", msg)
	}

	withCause := f.notPlaced(1, 0, errShed{retryAfter: time.Second, msg: "busy"}).Error()
	if !strings.Contains(withCause, "last failure") {
		t.Errorf("cause missing: %s", withCause)
	}

	empty := newFleet(t, Options{Dynamic: true})
	noCtx := empty.notPlaced(0, -1, nil).Error()
	if !strings.Contains(noCtx, "no workers registered") || strings.Contains(noCtx, "shard") {
		t.Errorf("empty-registry message: %s", noCtx)
	}
}
