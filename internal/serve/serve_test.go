package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"weak"

	"earlybird/internal/cluster"
	"earlybird/internal/engine"
	"earlybird/internal/trace"
	"earlybird/internal/workload"
)

// testGeom keeps service tests fast while preserving the 48-thread sets
// the analysis is calibrated for.
func testGeom() cluster.Config {
	return cluster.Config{Trials: 1, Ranks: 2, Iterations: 12, Threads: 48, Seed: 1}
}

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Options{Workers: 4})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeInto(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
}

func TestStudyCoalescingSingleExecution(t *testing.T) {
	s, ts := newTestServer(t)
	spec := StudySpec{App: "minife", Geometry: ptr(testGeom())}

	const n = 8
	var wg sync.WaitGroup
	responses := make([]StudyResponse, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := postJSON(t, ts.URL+"/v1/study", spec)
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			errs[i] = json.NewDecoder(resp.Body).Decode(&responses[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}

	// The acceptance criterion: N concurrent identical studies, one
	// engine execution.
	if got := s.Engine().Executions(); got != 1 {
		t.Errorf("engine executions = %d, want 1 for %d identical requests", got, n)
	}
	if got := s.sources.executed.Load(); got != 1 {
		t.Errorf("executed answers = %d, want 1", got)
	}
	if shared := s.sources.coalesced.Load() + s.sources.lruHits.Load(); shared != n-1 {
		t.Errorf("coalesced+cache answers = %d, want %d", shared, n-1)
	}
	// Every response carries the identical analysis.
	for i := 1; i < n; i++ {
		if responses[i].Metrics != responses[0].Metrics {
			t.Fatalf("response %d metrics diverged", i)
		}
		if responses[i].Assessment.Recommendation != responses[0].Assessment.Recommendation {
			t.Fatalf("response %d recommendation diverged", i)
		}
	}
}

func TestStudyResultCacheServesRepeat(t *testing.T) {
	_, ts := newTestServer(t)
	spec := StudySpec{App: "minimd", Geometry: ptr(testGeom())}

	var first, second StudyResponse
	decodeInto(t, postJSON(t, ts.URL+"/v1/study", spec), &first)
	if first.Source != SourceExecuted {
		t.Errorf("first source = %q, want executed", first.Source)
	}
	decodeInto(t, postJSON(t, ts.URL+"/v1/study", spec), &second)
	if second.Source != SourceResultCache {
		t.Errorf("second source = %q, want result-cache", second.Source)
	}
	if first.Metrics != second.Metrics {
		t.Error("cached metrics diverged from executed metrics")
	}
	// Defaults were resolved: alpha filled, geometry echoed.
	if second.Alpha != 0.05 {
		t.Errorf("alpha = %v, want resolved default 0.05", second.Alpha)
	}
	if second.Geometry != testGeom() {
		t.Errorf("geometry echoed %+v, want %+v", second.Geometry, testGeom())
	}
}

func TestCampaignEndpointDedupsAndOrders(t *testing.T) {
	s, ts := newTestServer(t)
	g := ptr(testGeom())
	req := CampaignRequest{Specs: []StudySpec{
		{App: "minife", Geometry: g},
		{App: "miniqmc", Geometry: g},
		{App: "minife", Geometry: g}, // duplicate of 0
		{App: "nosuchapp"},           // per-spec failure
	}}

	var resp CampaignResponse
	decodeInto(t, postJSON(t, ts.URL+"/v1/campaign", req), &resp)

	if len(resp.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(resp.Results))
	}
	for i, e := range resp.Results {
		if e.Index != i {
			t.Errorf("result %d has index %d", i, e.Index)
		}
	}
	if resp.Failed != 1 || resp.Results[3].Err == "" {
		t.Errorf("failed = %d (entry err %q), want exactly the unknown app to fail",
			resp.Failed, resp.Results[3].Err)
	}
	if resp.Results[0].App != "minife" || resp.Results[1].App != "miniqmc" {
		t.Error("results not in spec order")
	}
	// The duplicate cost no second execution of the minife study.
	if got := s.Engine().Executions(); got != 2 {
		t.Errorf("engine executions = %d, want 2 (minife + miniqmc)", got)
	}
}

func TestFeasibilityEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	var resp FeasibilityResponse
	decodeInto(t, postJSON(t, ts.URL+"/v1/feasibility", StudySpec{App: "miniqmc", Geometry: ptr(testGeom())}), &resp)
	if resp.App != "miniqmc" {
		t.Errorf("app = %q", resp.App)
	}
	if resp.Assessment.Recommendation == "" {
		t.Error("assessment has no recommendation")
	}
	if len(resp.Assessment.Results) != 3 {
		t.Errorf("got %d strategy results, want 3", len(resp.Assessment.Results))
	}
}

func TestSweepStreamsNDJSONWithoutMaterializing(t *testing.T) {
	s, ts := newTestServer(t)
	req := SweepRequest{
		Apps:       []string{"minife", "minimd", "miniqmc"},
		Geometries: []cluster.Config{testGeom()},
		Alphas:     []float64{0.05, 0.01},
	}

	resp := postJSON(t, ts.URL+"/v1/sweep", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content-type = %q", ct)
	}
	if cells := resp.Header.Get("X-Sweep-Cells"); cells != "6" {
		t.Errorf("X-Sweep-Cells = %q, want 6", cells)
	}
	// Streaming: the body is chunked, not a buffered Content-Length reply.
	if resp.ContentLength >= 0 {
		t.Errorf("response has Content-Length %d; want a streamed body", resp.ContentLength)
	}

	seen := map[int]SweepRow{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var row SweepRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if row.Err != "" {
			t.Fatalf("cell %d failed: %s", row.Index, row.Err)
		}
		seen[row.Index] = row
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 6 {
		t.Fatalf("got %d rows, want 6", len(seen))
	}
	for i := 0; i < 6; i++ {
		row, ok := seen[i]
		if !ok {
			t.Fatalf("missing row %d", i)
		}
		if row.Recommendation == "" {
			t.Errorf("row %d has no recommendation", i)
		}
		if row.Metrics.MeanMedianSec <= 0 {
			t.Errorf("row %d has empty metrics", i)
		}
	}

	// The acceptance criterion: the sweep ran entirely on the columnar
	// cursor path — no cached dataset ever grew its nested tensor view.
	if got := s.Engine().NestedViews(); got != 0 {
		t.Errorf("nested views = %d after sweep, want 0 (dataset materialised server-side)", got)
	}
	// Three apps at one geometry: three generations, the alpha axis
	// re-read them from cache.
	if got := s.Engine().Executions(); got != 3 {
		t.Errorf("engine executions = %d, want 3", got)
	}
}

// flushCounter proves each NDJSON row is flushed individually.
type flushCounter struct {
	*httptest.ResponseRecorder
	flushes int
}

func (f *flushCounter) Flush() {
	f.flushes++
	f.ResponseRecorder.Flush()
}

func TestSweepFlushesEveryRow(t *testing.T) {
	s := New(Options{Workers: 2})
	body, _ := json.Marshal(SweepRequest{
		Apps:       []string{"minife", "minimd"},
		Geometries: []cluster.Config{testGeom()},
	})
	req := httptest.NewRequest("POST", "/v1/sweep", bytes.NewReader(body))
	rec := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
	s.Handler().ServeHTTP(rec, req)

	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	lines := strings.Count(rec.Body.String(), "\n")
	if lines != 2 {
		t.Fatalf("got %d rows, want 2", lines)
	}
	if rec.flushes < lines {
		t.Errorf("flushed %d times for %d rows; rows are being buffered, not streamed", rec.flushes, lines)
	}
}

func TestSweepLargeGeometryBypassesCache(t *testing.T) {
	// A cache bound below the test geometry forces the streaming-fill
	// path: the row must be marked streamed and the engine cache must
	// stay empty.
	s := New(Options{Workers: 2, MaxCachedSweepSamples: testGeom().Samples() - 1})
	body, _ := json.Marshal(SweepRequest{
		Apps:       []string{"minife"},
		Geometries: []cluster.Config{testGeom()},
	})
	req := httptest.NewRequest("POST", "/v1/sweep", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)

	var row SweepRow
	if err := json.Unmarshal(bytes.TrimSpace(rec.Body.Bytes()), &row); err != nil {
		t.Fatalf("bad row: %v", err)
	}
	if row.Err != "" {
		t.Fatal(row.Err)
	}
	if !row.Streamed {
		t.Error("over-bound geometry did not use the streaming fill")
	}
	if got := s.Engine().CachedDatasets(); got != 0 {
		t.Errorf("streaming-fill sweep cached %d datasets, want 0", got)
	}
	if row.Metrics.MeanMedianSec <= 0 || row.Recommendation == "" {
		t.Error("streamed row has empty analysis")
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	spec := StudySpec{App: "minife", Geometry: ptr(testGeom())}
	postJSON(t, ts.URL+"/v1/study", spec).Body.Close()
	postJSON(t, ts.URL+"/v1/study", spec).Body.Close()

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsResponse
	decodeInto(t, resp, &stats)

	ep, ok := stats.Endpoints["/v1/study"]
	if !ok {
		t.Fatalf("no /v1/study endpoint stats: %+v", stats.Endpoints)
	}
	if ep.Requests != 2 || ep.Errors != 0 {
		t.Errorf("study endpoint: %+v, want 2 requests 0 errors", ep)
	}
	if stats.Study.Executed != 1 || stats.Study.ResultCacheHits != 1 {
		t.Errorf("study sources: %+v, want 1 executed + 1 cache hit", stats.Study)
	}
	if stats.Engine.Executions != 1 || stats.Engine.CachedDatasets != 1 {
		t.Errorf("engine stats: %+v", stats.Engine)
	}
	if stats.Study.ResultCacheSize != 1 {
		t.Errorf("result cache size = %d, want 1", stats.Study.ResultCacheSize)
	}
}

func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t)

	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/v1/study", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
	}

	// Unknown field (typo protection).
	resp, err = http.Post(ts.URL+"/v1/study", "application/json", strings.NewReader(`{"appp":"minife"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", resp.StatusCode)
	}

	// Unknown app.
	resp = postJSON(t, ts.URL+"/v1/study", StudySpec{App: "nosuchapp"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("unknown app: status %d, want 422", resp.StatusCode)
	}

	// Conflicting geometry fields.
	resp = postJSON(t, ts.URL+"/v1/study", StudySpec{App: "minife", Geometry: ptr(testGeom()), GeometryName: "quick"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("conflicting geometry: status %d, want 422", resp.StatusCode)
	}

	// Geometry over the study sample bound (the sweep path is the
	// documented escape hatch for large geometries).
	huge := cluster.Config{Trials: 1000, Ranks: 100, Iterations: 10000, Threads: 100, Seed: 1}
	resp = postJSON(t, ts.URL+"/v1/study", StudySpec{App: "minife", Geometry: &huge})
	var capErr errorResponse
	decodeInto(t, resp, &capErr)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("oversized study: status %d, want 422", resp.StatusCode)
	}
	if !strings.Contains(capErr.Error, "/v1/sweep") {
		t.Errorf("oversized study error %q does not point at /v1/sweep", capErr.Error)
	}

	// Oversized campaign batch.
	resp = postJSON(t, ts.URL+"/v1/campaign", CampaignRequest{Specs: make([]StudySpec, maxCampaignSpecs+1)})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized campaign: status %d, want 400", resp.StatusCode)
	}

	// Wrong method.
	resp, err = http.Get(ts.URL + "/v1/study")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET study: status %d, want 405", resp.StatusCode)
	}

	// Empty campaign.
	resp = postJSON(t, ts.URL+"/v1/campaign", CampaignRequest{})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty campaign: status %d, want 400", resp.StatusCode)
	}

	// Oversized sweep grid.
	resp = postJSON(t, ts.URL+"/v1/sweep", SweepRequest{
		Apps:   []string{"minife"},
		Alphas: make([]float64, maxSweepCells+1),
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized sweep: status %d, want 400", resp.StatusCode)
	}
}

func TestGracefulShutdown(t *testing.T) {
	s := New(Options{Workers: 2})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()

	url := "http://" + ln.Addr().String()
	resp, err := http.Get(url + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case err := <-served:
		if err != http.ErrServerClosed {
			t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
	if _, err := http.Get(url + "/v1/healthz"); err == nil {
		t.Error("server still accepting connections after Shutdown")
	}
}

// TestStudyResultCacheReleasesDataset: the result cache holds a
// study's reply, not its dataset. With one cached dataset, study B
// evicts study A's; after a collection nothing keeps A's dataset alive,
// and A still answers from the result cache.
func TestStudyResultCacheReleasesDataset(t *testing.T) {
	s := New(Options{Workers: 1, MaxDatasets: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	geomA, geomB := testGeom(), testGeom()
	geomB.Seed = 2
	study := func(g cluster.Config) Source {
		t.Helper()
		resp := postJSON(t, ts.URL+"/v1/study", StudySpec{App: "minife", Geometry: &g})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %s", resp.Status)
		}
		var out StudyResponse
		decodeInto(t, resp, &out)
		return out.Source
	}

	if src := study(geomA); src != SourceExecuted {
		t.Fatalf("study A source %q, want executed", src)
	}
	// A's dataset, as the engine cached it; the pointer itself lives only
	// inside this closure.
	weakA := func() weak.Pointer[trace.Dataset] {
		model, err := workload.ByName("minife")
		if err != nil {
			t.Fatal(err)
		}
		ds, hit, err := s.Engine().Dataset(model, geomA)
		if err != nil || !hit {
			t.Fatalf("study A's dataset not cached: hit %v, %v", hit, err)
		}
		return weak.Make(ds)
	}()
	if src := study(geomB); src != SourceExecuted {
		t.Fatalf("study B source %q, want executed", src)
	}
	if n := s.Engine().EvictedDatasets(); n != 1 {
		t.Fatalf("evicted %d datasets, want A's", n)
	}
	runtime.GC()
	if weakA.Value() != nil {
		t.Fatal("study A's evicted dataset is still reachable: the result cache keeps it alive")
	}
	if src := study(geomA); src != SourceResultCache {
		t.Fatalf("study A source %q after the eviction, want result-cache", src)
	}
}

// TestRefusedStudyKeepsCachedDataset: a study whose generation fails
// takes no dataset-cache slot. With one cached dataset, studies over a
// non-positive geometry answer 422, evict nothing, and a study on the
// cached dataset under another alpha still finds it.
func TestRefusedStudyKeepsCachedDataset(t *testing.T) {
	s := New(Options{Workers: 1, MaxDatasets: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	geom := testGeom()
	resp := postJSON(t, ts.URL+"/v1/study", StudySpec{App: "minife", Geometry: &geom})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("priming study: status %s", resp.Status)
	}
	resp.Body.Close()

	for _, trials := range []int{-1, -2, 0} {
		bad := testGeom()
		bad.Trials = trials
		resp := postJSON(t, ts.URL+"/v1/study", StudySpec{App: "minife", Geometry: &bad})
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("trials %d: status %s, want 422", trials, resp.Status)
		}
	}
	if n := s.Engine().EvictedDatasets(); n != 0 {
		t.Fatalf("refused studies evicted %d datasets, want 0", n)
	}

	resp = postJSON(t, ts.URL+"/v1/study", StudySpec{App: "minife", Geometry: &geom,
		Policy: &PolicySpec{Alpha: 0.01}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second study: status %s", resp.Status)
	}
	var out StudyResponse
	decodeInto(t, resp, &out)
	if out.Source != SourceExecuted || !out.DatasetCacheHit {
		t.Fatalf("study on the cached dataset: source %q, dataset_cache_hit %v; want executed on a cached dataset",
			out.Source, out.DatasetCacheHit)
	}
}

func ptr[T any](v T) *T { return &v }

func mustKey(t *testing.T, sp engine.Spec) engine.SpecKey {
	t.Helper()
	resolved, err := sp.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return resolved.Key()
}
