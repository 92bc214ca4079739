package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"testing"

	"earlybird/internal/analysis"
	"earlybird/internal/cluster"
	"earlybird/internal/core"
	"earlybird/internal/dlb"
	"earlybird/internal/trace"
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

// TestSweepAndShardLeaveEngineEmpty pins that the sweep path reads and
// fills no dataset cache: a /v1/sweep grid, a prefix shard, an offset
// shard and a repeated shard leave the engine with no execution, no
// cached dataset and no nested view, and the repeat answers the same
// bytes.
func TestSweepAndShardLeaveEngineEmpty(t *testing.T) {
	views := trace.NestedViews()
	s, ts := newTestServer(t)
	geom := cluster.Config{Trials: 3, Ranks: 2, Iterations: 8, Threads: 48, Seed: 5}
	body, _ := json.Marshal(SweepRequest{Apps: []string{"minife", "minimd"}, Geometries: []cluster.Config{geom}})
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || bytes.Count(rows, []byte("\n")) != 2 || bytes.Contains(rows, []byte(`"error"`)) {
		t.Fatalf("sweep: status %s, rows %s", resp.Status, rows)
	}
	first := fetchShard(t, ts.URL, ShardRequest{App: "minife", Geometry: &geom, TrialHi: 2})
	again := fetchShard(t, ts.URL, ShardRequest{App: "minife", Geometry: &geom, TrialHi: 2})
	fetchShard(t, ts.URL, ShardRequest{App: "minife", Geometry: &geom, TrialLo: 2, TrialHi: 3})
	if string(first.MetricsState) != string(again.MetricsState) || string(first.Table1State) != string(again.Table1State) {
		t.Error("a repeated shard answered other bytes")
	}
	eng := s.Engine()
	if eng.Executions() != 0 || eng.CachedDatasets() != 0 || (trace.NestedViews()-views) != 0 {
		t.Errorf("sweep and shards left %d executions, %d cached datasets, %d nested views; want none",
			eng.Executions(), eng.CachedDatasets(), (trace.NestedViews() - views))
	}
}

// TestShardStreamedPathBitIdentical pins the exactness contract of the
// fold on either side of the sample bound — one fill worker at or under
// it, the fold's parallel workers over it — against a block kernel over
// a cursor of the same trials, static and LeWI, and that repeating a
// shard reproduces its bytes.
func TestShardStreamedPathBitIdentical(t *testing.T) {
	geom := cluster.Config{Trials: 4, Ranks: 2, Iterations: 6, Threads: 48, Seed: 13}
	const lo, hi = 1, 3
	for _, policy := range []dlb.Spec{{}, {Policy: dlb.PolicyLeWI}} {
		run := geom
		run.Trials = hi - lo
		col, err := cluster.RunColumnar(cluster.ShiftTrials(workload.DefaultMiniFE(), lo), run, policy, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		macc := analysis.NewMetricsAccumulator("minife", analysis.DefaultLaggardThresholdSec)
		tacc := analysis.NewTable1Accumulator("minife", 0.05)
		analysis.NewKernel(macc, tacc).ObserveCursor(col.Cursor(), lo)
		wantM, err := macc.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		wantT, err := tacc.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		req := ShardRequest{App: "minife", Geometry: &geom, TrialLo: lo, TrialHi: hi}
		if !policy.IsStatic() {
			req.DLB = &policy
		}
		for _, bound := range []int{maxBoundedShardSamples, 1} {
			s := New(Options{Workers: 4})
			s.maxSweepSamples = bound
			ts := newHTTPServer(t, s)
			sr := fetchShard(t, ts.URL, req)
			again := fetchShard(t, ts.URL, req)
			if string(sr.MetricsState) != string(again.MetricsState) {
				t.Errorf("%s, bound %d: shard state is not deterministic across runs", policy, bound)
			}
			if string(sr.MetricsState) != string(wantM) || string(sr.Table1State) != string(wantT) {
				t.Errorf("%s, bound %d: shard state diverges from the cursor's", policy, bound)
			}
		}
	}
}

// TestShardReadingsAnswerRecordSet pins the /v1/shard answer to a
// request that lists further readings: a record set whose records are,
// byte for byte, the answers to each reading's own request, in order,
// a repeated parameter included; each is accepted by its own request
// and refused by another's, and a set read for the wrong count is
// refused.
func TestShardReadingsAnswerRecordSet(t *testing.T) {
	_, ts := newTestServer(t)
	geom := shardGeomMulti()
	lewi := dlb.Spec{Policy: dlb.PolicyLeWI}
	req := ShardRequest{
		App: "minimd", Geometry: &geom, DLB: &lewi, TrialLo: 1, TrialHi: 3,
		Readings: []Reading{{Alpha: 0.01}, {LaggardSec: 5e-4}, {Alpha: 0.01, LaggardSec: 5e-4}},
	}
	raw := func(r ShardRequest) []byte {
		t.Helper()
		resp := postJSON(t, ts.URL+"/v1/shard", r)
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("shard: status %s, %v: %s", resp.Status, err, body)
		}
		return body
	}
	resolved, err := req.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	reqs := resolved.Split()
	if len(reqs) != 4 {
		t.Fatalf("split into %d requests, want 4", len(reqs))
	}
	recs, err := SplitRecordSet(raw(req), len(reqs))
	if err != nil {
		t.Fatal(err)
	}
	for j, one := range reqs {
		if want := raw(one); !bytes.Equal(recs[j], want) {
			t.Errorf("reading %d (alpha %g, laggard %g): record differs from its own shard's answer", j, one.Alpha, one.LaggardSec)
		}
		if _, err := one.Accept(recs[j]); err != nil {
			t.Errorf("reading %d: %v", j, err)
		}
		if _, err := reqs[(j+1)%len(reqs)].Accept(recs[j]); err == nil {
			t.Errorf("reading %d's record was accepted for another reading", j)
		}
	}
	if _, err := SplitRecordSet(raw(req), len(reqs)-1); err == nil {
		t.Error("a record set was split for the wrong count")
	}
}
