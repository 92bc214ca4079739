package earlybird_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"earlybird"
	"earlybird/internal/trace"
)

func TestFacadeEndToEnd(t *testing.T) {
	study, err := earlybird.NewStudy(earlybird.Options{
		App:      "miniqmc",
		Geometry: earlybird.Geometry{Trials: 2, Ranks: 2, Iterations: 30, Threads: 48, Seed: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := study.Metrics()
	if m.MeanMedianSec < 55e-3 || m.MeanMedianSec > 67e-3 {
		t.Errorf("median %v", m.MeanMedianSec)
	}
	a := study.Feasibility(1<<20, earlybird.OmniPath(), 1e-3)
	if a.Recommendation != earlybird.RecommendFineGrained {
		t.Errorf("recommendation %q", a.Recommendation)
	}
}

func TestFacadeGeometries(t *testing.T) {
	pg := earlybird.PaperGeometry()
	if pg.Trials != 10 || pg.Ranks != 8 || pg.Iterations != 200 || pg.Threads != 48 {
		t.Errorf("paper geometry %+v", pg)
	}
	qg := earlybird.QuickGeometry()
	if qg.Threads != 48 {
		t.Errorf("quick geometry should keep 48 threads: %+v", qg)
	}
}

// TestFacadePolicyDLB drives the unified policy axis through the
// facade: a LeWI-rebalanced study must differ from the static one at a
// geometry with enough ranks for lending to fire, and the CLI policy
// syntax round-trips through ParseDLB.
func TestFacadePolicyDLB(t *testing.T) {
	geom := earlybird.Geometry{Trials: 1, Ranks: 4, Iterations: 12, Threads: 48, Seed: 1}
	static, err := earlybird.NewStudy(earlybird.Options{App: "minife", Geometry: geom})
	if err != nil {
		t.Fatal(err)
	}
	policy, err := earlybird.ParseDLB("lewi")
	if err != nil {
		t.Fatal(err)
	}
	if policy.Policy != earlybird.DLBLeWI {
		t.Fatalf("ParseDLB(lewi) = %+v", policy)
	}
	lewi, err := earlybird.NewStudy(earlybird.Options{
		App:      "minife",
		Geometry: geom,
		Policy:   earlybird.PolicySpec{DLB: policy},
	})
	if err != nil {
		t.Fatal(err)
	}
	if static.Metrics() == lewi.Metrics() {
		t.Error("LeWI rebalancing left the study metrics bit-identical to static")
	}
	if _, err := earlybird.ParseDLB("nope"); err == nil {
		t.Error("ParseDLB(nope): expected error")
	}
	if _, err := earlybird.NewStudy(earlybird.Options{
		App:    "minife",
		Policy: earlybird.PolicySpec{DLB: earlybird.DLBSpec{Policy: "bogus"}},
	}); err == nil {
		t.Error("bogus DLB policy: expected error")
	}
}

func TestFacadeDatasetRoundTrip(t *testing.T) {
	study, err := earlybird.NewStudy(earlybird.Options{
		App:      "minife",
		Geometry: earlybird.Geometry{Trials: 1, Ranks: 2, Iterations: 10, Threads: 48, Seed: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := study.Dataset().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	ds, err := trace.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	back, err := earlybird.FromDataset(ds)
	if err != nil {
		t.Fatal(err)
	}
	if back.Metrics().MeanMedianSec != study.Metrics().MeanMedianSec {
		t.Error("round trip changed metrics")
	}
}

func TestFacadeRunCampaign(t *testing.T) {
	small := earlybird.Geometry{Trials: 1, Ranks: 2, Iterations: 12, Threads: 48, Seed: 21}
	results, err := earlybird.RunCampaign(earlybird.Campaign{
		Specs: []earlybird.CampaignSpec{
			{App: "minife", Geometry: small},
			{App: "miniqmc", Geometry: small},
			{App: "minife", Geometry: small}, // duplicate: cache-served
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("%d results for 3 specs", len(results))
	}
	if results[0].Metrics != results[2].Metrics {
		t.Error("duplicate specs disagree")
	}
	if !results[2].CacheHit {
		t.Error("duplicate spec not served from cache")
	}
	if results[1].Assessment.Recommendation != earlybird.RecommendFineGrained {
		t.Errorf("miniqmc recommendation %q", results[1].Assessment.Recommendation)
	}
}

func TestFacadeSharedEngine(t *testing.T) {
	small := earlybird.Geometry{Trials: 1, Ranks: 2, Iterations: 12, Threads: 48, Seed: 22}
	eng := earlybird.NewEngine(2)
	if _, err := eng.Run(earlybird.Campaign{Specs: []earlybird.CampaignSpec{{App: "minimd", Geometry: small}}}); err != nil {
		t.Fatal(err)
	}
	// A second campaign on the same engine reuses the cached dataset.
	results, err := eng.Run(earlybird.Campaign{Specs: []earlybird.CampaignSpec{{App: "minimd", Geometry: small, Alpha: 0.01}}})
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].CacheHit {
		t.Error("second campaign did not hit the shared cache")
	}
	if got := eng.Executions(); got != 1 {
		t.Errorf("executions = %d, want 1", got)
	}
}

func TestFacadeFabric(t *testing.T) {
	f := earlybird.OmniPath()
	if f.BandwidthBytesPerSec <= 0 {
		t.Error("bad fabric")
	}
}

// TestStreamingMatchesMaterializedAtPaperGeometry is the acceptance check
// for the streaming pipeline at the paper's own 768000-sample geometry:
// every exactly-streamable metric agrees with the materialised path to
// float rounding, and the sketch-estimated IQR statistics agree within
// their documented tolerance (10% relative; in practice far closer).
func TestStreamingMatchesMaterializedAtPaperGeometry(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-geometry study skipped with -short")
	}
	streamed, err := earlybird.StreamMetrics(earlybird.Options{App: "minife"})
	if err != nil {
		t.Fatal(err)
	}
	study, err := earlybird.NewStudy(earlybird.Options{App: "minife"})
	if err != nil {
		t.Fatal(err)
	}
	exact := study.Metrics()

	rel := func(a, b float64) float64 {
		if a == b {
			return 0
		}
		d := a - b
		if d < 0 {
			d = -d
		}
		m := a
		if b > m {
			m = b
		}
		return d / m
	}
	for _, c := range []struct {
		what      string
		got, want float64
	}{
		{"MeanMedianSec", streamed.MeanMedianSec, exact.MeanMedianSec},
		{"LaggardFraction", streamed.LaggardFraction, exact.LaggardFraction},
		{"AvgReclaimableProcSec", streamed.AvgReclaimableProcSec, exact.AvgReclaimableProcSec},
		{"IdleRatioProc", streamed.IdleRatioProc, exact.IdleRatioProc},
		{"AvgReclaimableAppIterSec", streamed.AvgReclaimableAppIterSec, exact.AvgReclaimableAppIterSec},
		{"IdleRatioAppIter", streamed.IdleRatioAppIter, exact.IdleRatioAppIter},
	} {
		if rel(c.got, c.want) > 1e-9 {
			t.Errorf("%s: streaming %v vs exact %v", c.what, c.got, c.want)
		}
	}
	if rel(streamed.IQRMeanSec, exact.IQRMeanSec) > 0.10 {
		t.Errorf("IQRMeanSec: streaming %v vs exact %v (>10%%)", streamed.IQRMeanSec, exact.IQRMeanSec)
	}
	if rel(streamed.IQRMaxSec, exact.IQRMaxSec) > 0.15 {
		t.Errorf("IQRMaxSec: streaming %v vs exact %v (>15%%)", streamed.IQRMaxSec, exact.IQRMaxSec)
	}
}

// TestFacadeRunCampaignErrorPropagation: per-spec failures land on the
// result and in the joined error, while valid sibling specs still
// complete.
func TestFacadeRunCampaignErrorPropagation(t *testing.T) {
	small := earlybird.Geometry{Trials: 1, Ranks: 1, Iterations: 8, Threads: 16, Seed: 30}
	results, err := earlybird.RunCampaign(earlybird.Campaign{
		Specs: []earlybird.CampaignSpec{
			{App: "no-such-app", Geometry: small},
			{App: "minife", Geometry: small},
		},
	})
	if err == nil {
		t.Fatal("expected a joined error for the failing spec")
	}
	if results[0].Err == nil {
		t.Error("failing spec has no per-result error")
	}
	if results[1].Err != nil || results[1].Metrics.MeanMedianSec <= 0 {
		t.Errorf("valid sibling spec did not complete: %+v", results[1])
	}
	if _, err := earlybird.RunCampaign(earlybird.Campaign{Specs: []earlybird.CampaignSpec{{}}}); err == nil {
		t.Error("empty spec should fail to resolve")
	}
}

// TestFacadeRunCampaignNamesDatasetSpec: a dataset-backed spec that
// fails to resolve is named in the joined error by its dataset's app,
// not by the empty App it was given.
func TestFacadeRunCampaignNamesDatasetSpec(t *testing.T) {
	ds := trace.NewDataset("wide", 1, 1, 1, 2)
	ds.Times[0][0][0] = []float64{0.01, 1e4} // 1e7 bins of the 1 ms timeout
	_, err := earlybird.RunCampaign(earlybird.Campaign{Specs: []earlybird.CampaignSpec{{Dataset: ds}}})
	if err == nil || !strings.Contains(err.Error(), "spec 0 (wide):") {
		t.Fatalf("error %v, want it to name spec 0 (wide)", err)
	}
}

// TestFacadeStrategySweep exercises the PR 4 strategy-lab aliases from
// the public API: the sweep returns the full grid, the frontier fields
// are consistent, and the alias types interoperate.
func TestFacadeStrategySweep(t *testing.T) {
	study, err := earlybird.NewStudy(earlybird.Options{
		App:      "minife",
		Geometry: earlybird.Geometry{Trials: 1, Ranks: 2, Iterations: 10, Threads: 48, Seed: 31},
	})
	if err != nil {
		t.Fatal(err)
	}
	var sw earlybird.StrategySweep = study.StrategySweep(1<<20, earlybird.OmniPath(), nil)
	if len(sw.Results) < 4 {
		t.Fatalf("strategy grid has %d results, want the full optimizer set", len(sw.Results))
	}
	var best earlybird.StrategyResult
	found := false
	for _, r := range sw.Results {
		if r.Strategy == sw.Best {
			best, found = r, true
		}
	}
	if !found {
		t.Fatalf("frontier names unknown strategy %q", sw.Best)
	}
	if best.MeanFinishSec != sw.BestFinishSec {
		t.Errorf("frontier finish %v != best result %v", sw.BestFinishSec, best.MeanFinishSec)
	}
	for _, r := range sw.Results {
		if r.MeanFinishSec < sw.BestFinishSec {
			t.Errorf("%s finishes before the declared best", r.Strategy)
		}
	}
}

// TestFacadeServeListenerError: Serve must surface listener failures
// instead of hanging.
func TestFacadeServeListenerError(t *testing.T) {
	err := earlybird.Serve(context.Background(), "127.0.0.1:999999", earlybird.ServeOptions{})
	if err == nil {
		t.Fatal("expected listener error")
	}
}

// TestFacadeServeShutdown: Serve drains and returns nil when its context
// is cancelled.
func TestFacadeServeShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- earlybird.Serve(ctx, "127.0.0.1:0", earlybird.ServeOptions{Workers: 1}) }()
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("clean shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not drain after cancellation")
	}
}

// TestFacadeFleetSweep: the one-call federation facade scatters a sweep
// over in-process workers and returns rows in grid order, bit-identical
// to local streaming analysis.
func TestFacadeFleetSweep(t *testing.T) {
	w1 := httptest.NewServer(earlybird.NewServer(earlybird.ServeOptions{Workers: 2}).Handler())
	defer w1.Close()
	w2 := httptest.NewServer(earlybird.NewServer(earlybird.ServeOptions{Workers: 2}).Handler())
	defer w2.Close()

	geom := earlybird.Geometry{Trials: 2, Ranks: 2, Iterations: 8, Threads: 48, Seed: 32}
	rows, err := earlybird.FleetSweep(context.Background(), []string{w1.URL, w2.URL}, earlybird.SweepRequest{
		Apps:       []string{"minife", "miniqmc"},
		Geometries: []earlybird.Geometry{geom},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows %d, want 2", len(rows))
	}
	for i, row := range rows {
		if row.Index != i {
			t.Errorf("rows not in grid order: %v at %d", row.Index, i)
		}
		if row.Err != "" {
			t.Fatalf("cell %d errored: %s", i, row.Err)
		}
		if row.Shards != 2 {
			t.Errorf("cell %d used %d shards, want 2", i, row.Shards)
		}
	}

	// The merged minife row equals local streaming execution bit-exactly
	// for the exact metrics.
	res, err := earlybird.StreamMetrics(earlybird.Options{App: "minife", Geometry: geom})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Metrics.MeanMedianSec != res.MeanMedianSec ||
		rows[0].Metrics.AvgReclaimableProcSec != res.AvgReclaimableProcSec {
		t.Errorf("federated metrics diverge from local streaming:\nfleet %+v\nlocal %+v", rows[0].Metrics, res)
	}

	// No healthy workers: a fresh fleet over a dead URL fails fast.
	dead := httptest.NewServer(nil)
	dead.Close()
	if _, err := earlybird.FleetSweep(context.Background(), []string{dead.URL}, earlybird.SweepRequest{Apps: []string{"minife"}}); err == nil {
		t.Error("expected error with no healthy workers")
	}
	if _, err := earlybird.NewFleet(earlybird.FleetOptions{}); err == nil {
		t.Error("NewFleet with no peers should fail")
	}
}

// TestFacadeProgress: ProgressID is deterministic over the study
// coordinates, and the id published by a server's /v1/progress endpoint
// after a study is exactly the facade-derived one.
func TestFacadeProgress(t *testing.T) {
	geom := earlybird.Geometry{Trials: 1, Ranks: 2, Iterations: 8, Threads: 48, Seed: 7}
	id := earlybird.ProgressID("minife", geom, earlybird.DLBSpec{})
	if id == "" || id != earlybird.ProgressID("minife", geom, earlybird.DLBSpec{}) {
		t.Fatalf("ProgressID not deterministic: %q", id)
	}
	if other := earlybird.ProgressID("miniqmc", geom, earlybird.DLBSpec{}); other == id {
		t.Fatal("distinct apps share a progress id")
	}

	ts := httptest.NewServer(earlybird.NewServer(earlybird.ServeOptions{Workers: 1}).Handler())
	defer ts.Close()
	body := bytes.NewBufferString(`{"app":"minife","geometry":{"trials":1,"ranks":2,"iterations":8,"threads":48,"seed":7}}`)
	resp, err := http.Post(ts.URL+"/v1/study", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("study status %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/progress?id=" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("progress status %d for id %s", resp.StatusCode, id)
	}
	var p earlybird.Progress
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		t.Fatal(err)
	}
	if p.ID != id || !p.Done {
		t.Fatalf("progress = %+v, want done snapshot for %s", p, id)
	}
}
