package serve

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"earlybird/internal/analysis"
	"earlybird/internal/cluster"
	"earlybird/internal/core"
	"earlybird/internal/dlb"
	"earlybird/internal/workload"
)

// shardGeomMulti is a multi-trial geometry small enough for fast tests
// but wide enough to shard three ways.
func shardGeomMulti() cluster.Config {
	return cluster.Config{Trials: 6, Ranks: 2, Iterations: 10, Threads: 48, Seed: 3}
}

// fetchShard posts one shard request and decodes the response.
func fetchShard(t *testing.T, url string, req ShardRequest) ShardResponse {
	t.Helper()
	resp := postJSON(t, url+"/v1/shard", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shard [%d,%d): status %s", req.TrialLo, req.TrialHi, resp.Status)
	}
	return decodeShard(t, resp)
}

// decodeShard reads one sealed /v1/shard record.
func decodeShard(t *testing.T, resp *http.Response) ShardResponse {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var sr ShardResponse
	if err := sr.UnmarshalBinary(body); err != nil {
		t.Fatalf("decoding shard record: %v", err)
	}
	return sr
}

// TestShardMergeBitIdenticalToSingleNode is the serve-level half of the
// federation exactness guarantee: accumulator states fetched for a
// partition of the trial space over HTTP — each generated independently
// through the trial-offset model — merge into results bit-identical to
// the single-node sweep row for every moment-derived metric and Table 1,
// and within the sketch's rank-error bound for the IQR statistics.
func TestShardMergeBitIdenticalToSingleNode(t *testing.T) {
	s, ts := newTestServer(t)
	geom := shardGeomMulti()
	cell := SweepCell{
		App: "minimd", Geometry: geom,
		Alpha: 0.05, LaggardThresholdSec: analysis.DefaultLaggardThresholdSec,
	}
	want := s.sweepCell(cell)
	if want.Err != "" {
		t.Fatal(want.Err)
	}

	// Three uneven shards covering [0, 6).
	ranges := [][2]int{{0, 1}, {1, 4}, {4, 6}}
	macc := analysis.NewMetricsAccumulator(cell.App, cell.LaggardThresholdSec)
	tacc := analysis.NewTable1Accumulator(cell.App, cell.Alpha)
	var blocks int64
	for _, rg := range ranges {
		sr := fetchShard(t, ts.URL, ShardRequest{
			App: cell.App, Geometry: &geom,
			Alpha: cell.Alpha, LaggardSec: cell.LaggardThresholdSec,
			TrialLo: rg[0], TrialHi: rg[1],
		})
		if wantBlocks := int64(rg[1]-rg[0]) * int64(geom.Ranks) * int64(geom.Iterations); sr.Blocks != wantBlocks {
			t.Fatalf("shard [%d,%d): %d blocks, want %d", rg[0], rg[1], sr.Blocks, wantBlocks)
		}
		decM := new(analysis.MetricsAccumulator)
		if err := decM.UnmarshalBinary(sr.MetricsState); err != nil {
			t.Fatal(err)
		}
		decT := new(analysis.Table1Accumulator)
		if err := decT.UnmarshalBinary(sr.Table1State); err != nil {
			t.Fatal(err)
		}
		macc.Merge(decM)
		tacc.Merge(decT)
		blocks += sr.Blocks
	}
	got := macc.Finalize()
	gotT1 := tacc.Finalize()

	if got.MeanMedianSec != want.Metrics.MeanMedianSec ||
		got.LaggardFraction != want.Metrics.LaggardFraction ||
		got.AvgReclaimableProcSec != want.Metrics.AvgReclaimableProcSec ||
		got.IdleRatioProc != want.Metrics.IdleRatioProc ||
		got.AvgReclaimableAppIterSec != want.Metrics.AvgReclaimableAppIterSec ||
		got.IdleRatioAppIter != want.Metrics.IdleRatioAppIter {
		t.Fatalf("merged shards not bit-identical to single node:\n got %+v\nwant %+v", got, want.Metrics)
	}
	if gotT1 != want.Table1 {
		t.Fatalf("merged Table1 %+v vs single node %+v", gotT1, want.Table1)
	}
	rel := func(a, b float64) float64 {
		if a == b {
			return 0
		}
		return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
	}
	if rel(got.IQRMeanSec, want.Metrics.IQRMeanSec) > 0.10 {
		t.Fatalf("IQRMeanSec merged %v vs single node %v", got.IQRMeanSec, want.Metrics.IQRMeanSec)
	}
	if blocks != int64(geom.Trials)*int64(geom.Ranks)*int64(geom.Iterations) {
		t.Fatalf("shards covered %d blocks, want the full trial space", blocks)
	}
	// The recommendation derived from merged metrics matches too.
	if core.ClassifyMetrics(got) != want.Recommendation {
		t.Fatalf("merged recommendation %q vs %q", core.ClassifyMetrics(got), want.Recommendation)
	}
}

// TestShardOffsetGenerationMatchesFullRun pins the trial-offset model:
// a shard generated as its own (hi-lo)-trial study must produce
// accumulator state identical to folding exactly those trials out of
// the full single-node dataset.
func TestShardOffsetGenerationMatchesFullRun(t *testing.T) {
	_, ts := newTestServer(t)
	geom := cluster.Config{Trials: 4, Ranks: 2, Iterations: 8, Threads: 48, Seed: 11}
	const lo, hi = 2, 4

	sr := fetchShard(t, ts.URL, ShardRequest{
		App: "miniqmc", Geometry: &geom, TrialLo: lo, TrialHi: hi,
	})
	viaWire := new(analysis.MetricsAccumulator)
	if err := viaWire.UnmarshalBinary(sr.MetricsState); err != nil {
		t.Fatal(err)
	}

	// Reference: the same trials folded from a full-geometry run.
	model, err := workload.ByName("miniqmc")
	if err != nil {
		t.Fatal(err)
	}
	col, err := cluster.RunColumnar(model, geom, dlb.Spec{}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := analysis.NewMetricsAccumulator("miniqmc", analysis.DefaultLaggardThresholdSec)
	cur := col.Cursor()
	for cur.Next() {
		b := cur.Block()
		if b.Trial >= lo && b.Trial < hi {
			ref.ObserveBlock(b.Trial, b.Rank, b.Iter, b.Times)
		}
	}
	if got, want := viaWire.Finalize(), ref.Finalize(); got != want {
		t.Fatalf("offset shard diverged from full-run trials:\n got %+v\nwant %+v", got, want)
	}
}

// TestShardValidation: malformed shard requests are rejected before any
// execution.
func TestShardValidation(t *testing.T) {
	_, ts := newTestServer(t)
	geom := testGeom()
	cases := []struct {
		name string
		req  ShardRequest
		code int
	}{
		{"unknown app", ShardRequest{App: "nope", Geometry: &geom, TrialHi: 1}, http.StatusUnprocessableEntity},
		{"empty range", ShardRequest{App: "minife", Geometry: &geom, TrialLo: 1, TrialHi: 1}, http.StatusUnprocessableEntity},
		{"negative lo", ShardRequest{App: "minife", Geometry: &geom, TrialLo: -1, TrialHi: 1}, http.StatusUnprocessableEntity},
		{"hi past trials", ShardRequest{App: "minife", Geometry: &geom, TrialHi: geom.Trials + 1}, http.StatusUnprocessableEntity},
		{"geometry conflict", ShardRequest{App: "minife", Geometry: &geom, GeometryName: "quick", TrialHi: 1}, http.StatusUnprocessableEntity},
		{"bad geometry name", ShardRequest{App: "minife", GeometryName: "nope", TrialHi: 1}, http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		resp := postJSON(t, ts.URL+"/v1/shard", c.req)
		resp.Body.Close()
		if resp.StatusCode != c.code {
			t.Errorf("%s: status %s, want %d", c.name, resp.Status, c.code)
		}
	}
}

// TestShardCacheKeying: a prefix shard (lo == 0) shares the engine's
// dataset cache with an ordinary study of the prefix geometry, while an
// offset shard generates its own entry — and repeating either shard hits
// the cache.
func TestShardCacheKeying(t *testing.T) {
	s, ts := newTestServer(t)
	geom := cluster.Config{Trials: 3, Ranks: 2, Iterations: 8, Threads: 48, Seed: 5}

	// Prefix shard [0, 2) generates the 2-trial prefix dataset.
	first := fetchShard(t, ts.URL, ShardRequest{App: "minife", Geometry: &geom, TrialHi: 2})
	if first.DatasetCacheHit {
		t.Error("first prefix shard should generate")
	}
	if got := s.Engine().Executions(); got != 1 {
		t.Fatalf("executions after prefix shard = %d, want 1", got)
	}
	// Repeat: served from cache.
	again := fetchShard(t, ts.URL, ShardRequest{App: "minife", Geometry: &geom, TrialHi: 2})
	if !again.DatasetCacheHit {
		t.Error("repeated prefix shard should hit the dataset cache")
	}
	// Offset shard [2, 3) is a distinct cache entry.
	off := fetchShard(t, ts.URL, ShardRequest{App: "minife", Geometry: &geom, TrialLo: 2, TrialHi: 3})
	if off.DatasetCacheHit {
		t.Error("offset shard should generate its own entry")
	}
	if got := s.Engine().Executions(); got != 2 {
		t.Fatalf("executions after offset shard = %d, want 2", got)
	}
	// The nested tensor view is never built on the shard path.
	if got := s.Engine().NestedViews(); got != 0 {
		t.Fatalf("shard path built %d nested views, want 0", got)
	}
}

// TestShardStreamedPathBitIdentical forces the over-the-cache-bound
// branch (trial-at-a-time, uncached) and pins the exactness contract
// there too: the streamed shard's state must merge bit-identically with
// a cursor-path reference, and repeating it must reproduce the same
// bytes (the trial-at-a-time fill is deterministic, unlike a
// multi-observer streaming fill).
func TestShardStreamedPathBitIdentical(t *testing.T) {
	// A server whose sweep cache bound is below any real geometry: every
	// shard takes the streamed branch.
	s := New(Options{Workers: 4, MaxCachedSweepSamples: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	geom := cluster.Config{Trials: 4, Ranks: 2, Iterations: 6, Threads: 48, Seed: 13}

	sr := fetchShard(t, ts.URL, ShardRequest{App: "minife", Geometry: &geom, TrialLo: 1, TrialHi: 3})
	if !sr.Streamed {
		t.Fatal("expected the streamed branch")
	}
	again := fetchShard(t, ts.URL, ShardRequest{App: "minife", Geometry: &geom, TrialLo: 1, TrialHi: 3})
	if string(sr.MetricsState) != string(again.MetricsState) {
		t.Fatal("streamed shard state is not deterministic across runs")
	}

	// Reference: the cached cursor path on a fresh default server.
	ref, refTS := newTestServer(t)
	_ = ref
	want := fetchShard(t, refTS.URL, ShardRequest{App: "minife", Geometry: &geom, TrialLo: 1, TrialHi: 3})
	if want.Streamed {
		t.Fatal("reference unexpectedly streamed")
	}
	if string(sr.MetricsState) != string(want.MetricsState) || string(sr.Table1State) != string(want.Table1State) {
		t.Fatal("streamed shard state diverges from the cursor path")
	}
}
