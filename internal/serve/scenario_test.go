package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"earlybird/internal/trace"
)

// scenarioDoc is a two-cell scenario (one app source, two timeouts) in
// the JSON document form; the geometry matches testGeom so scenario
// cells land on the same spec keys as the plain study tests.
const scenarioDoc = `{
	"name": "serve-test",
	"sources": ["minife"],
	"geometries": ["1x2x12x48"],
	"bin_timeouts_ms": ["1", "2"]
}`

// testTraceCSV renders a small dataset with non-degenerate times as the
// long-form CSV an inline trace source carries.
func testTraceCSV(t *testing.T) string {
	t.Helper()
	ds := trace.NewDataset("captured", 1, 2, 3, 4)
	for _, trial := range ds.Times {
		for r, rank := range trial {
			for i, iter := range rank {
				for th := range iter {
					iter[th] = 1e-3 * float64(1+(r+i+th)%5)
				}
			}
		}
	}
	var b strings.Builder
	if err := ds.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func postScenario(t *testing.T, url string, req ScenarioRequest) *http.Response {
	t.Helper()
	return postJSON(t, url+"/v1/scenario", req)
}

func TestScenarioEndpointRunsCells(t *testing.T) {
	_, ts := newTestServer(t)
	resp := postScenario(t, ts.URL, ScenarioRequest{Scenario: scenarioDoc})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var sr ScenarioResponse
	decodeInto(t, resp, &sr)
	if sr.Name != "serve-test" || sr.Cells != 2 || sr.UniqueSpecs != 2 {
		t.Fatalf("header = %+v, want serve-test / 2 cells / 2 unique", sr)
	}
	if len(sr.Rows) != 2 || sr.Failed != 0 {
		t.Fatalf("rows %d failed %d", len(sr.Rows), sr.Failed)
	}
	for i, row := range sr.Rows {
		if row.Err != "" {
			t.Fatalf("row %d: %s", i, row.Err)
		}
		if row.Index != i || row.Workload != "app:minife" || row.Geometry != "1x2x12x48" {
			t.Errorf("row %d coordinates = %q %q (index %d)", i, row.Workload, row.Geometry, row.Index)
		}
		if row.Assessment.Recommendation == "" {
			t.Errorf("row %d has no assessment", i)
		}
	}
	// The two cells differ only in bin timeout, which does not change the
	// generated dataset: the engine's cache should serve the second cell.
	if !sr.Rows[0].DatasetCacheHit && !sr.Rows[1].DatasetCacheHit {
		t.Error("no cell reused the engine's dataset cache")
	}
}

func TestScenarioCheckMode(t *testing.T) {
	_, ts := newTestServer(t)
	resp := postScenario(t, ts.URL, ScenarioRequest{Scenario: scenarioDoc, Check: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var sr ScenarioResponse
	decodeInto(t, resp, &sr)
	if len(sr.Rows) != 0 {
		t.Fatalf("check mode executed %d cells", len(sr.Rows))
	}
	if !strings.Contains(sr.Plan, "scenario serve-test: 2 cells") {
		t.Fatalf("plan = %q", sr.Plan)
	}
}

func TestScenarioStreamMode(t *testing.T) {
	_, ts := newTestServer(t)
	resp := postScenario(t, ts.URL, ScenarioRequest{Scenario: scenarioDoc, Stream: true})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Scenario-Cells"); got != "2" {
		t.Fatalf("X-Scenario-Cells = %q", got)
	}
	seen := map[int]bool{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var row ScenarioRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("bad NDJSON line: %v", err)
		}
		if row.Err != "" {
			t.Fatalf("row %d: %s", row.Index, row.Err)
		}
		seen[row.Index] = true
	}
	if len(seen) != 2 {
		t.Fatalf("streamed %d distinct rows, want 2", len(seen))
	}
}

func TestScenarioRejectsTracePaths(t *testing.T) {
	_, ts := newTestServer(t)
	doc := `{"name": "paths", "sources": [{"trace": "/etc/passwd"}]}`
	resp := postScenario(t, ts.URL, ScenarioRequest{Scenario: doc})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var eb errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(eb.Error, "inline") {
		t.Fatalf("error %q does not point at inlining", eb.Error)
	}
}

func TestScenarioInlineTraceRuns(t *testing.T) {
	_, ts := newTestServer(t)
	doc, err := json.Marshal(map[string]any{
		"name":    "replay",
		"sources": []any{map[string]any{"csv": testTraceCSV(t)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp := postScenario(t, ts.URL, ScenarioRequest{Scenario: string(doc)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var sr ScenarioResponse
	decodeInto(t, resp, &sr)
	if len(sr.Rows) != 1 || sr.Rows[0].Err != "" {
		t.Fatalf("rows = %+v", sr.Rows)
	}
	if sr.Rows[0].Workload != "trace:inline#0" {
		t.Fatalf("workload = %q", sr.Rows[0].Workload)
	}
	if sr.Rows[0].Assessment.App != "captured" {
		t.Fatalf("assessment app = %q, want the dataset's", sr.Rows[0].Assessment.App)
	}
}

func TestScenarioCoalescesWithStudy(t *testing.T) {
	_, ts := newTestServer(t)

	// Prime the result cache through /v1/study with the spec the
	// scenario's first cell compiles to.
	resp := postJSON(t, ts.URL+"/v1/study", StudySpec{App: "minife", Geometry: ptr(testGeom()), Policy: &PolicySpec{BinTimeoutSec: 1e-3}})
	var prime StudyResponse
	decodeInto(t, resp, &prime)
	if prime.Source != SourceExecuted {
		t.Fatalf("priming study source = %q", prime.Source)
	}

	resp = postScenario(t, ts.URL, ScenarioRequest{Scenario: scenarioDoc})
	var sr ScenarioResponse
	decodeInto(t, resp, &sr)
	if len(sr.Rows) != 2 {
		t.Fatalf("rows = %d", len(sr.Rows))
	}
	if sr.Rows[0].Source != SourceResultCache {
		t.Fatalf("cell 0 source = %q: the scenario cell did not share the study's result cache entry", sr.Rows[0].Source)
	}
}

// fakeStudyFleet implements FleetDispatcher and the optional
// WholeDispatcher upgrade: it declines sweep cells and answers studies
// with a canned marker response, recording what it was offered.
type fakeStudyFleet struct {
	mu    sync.Mutex
	specs []StudySpec
}

func (f *fakeStudyFleet) DispatchCell(ctx context.Context, cell SweepCell) (SweepRow, bool) {
	return SweepRow{}, false
}

func (f *fakeStudyFleet) Snapshot() FleetSnapshot { return FleetSnapshot{} }

func (f *fakeStudyFleet) DispatchWhole(ctx context.Context, hash uint64, path string, req, out any) bool {
	spec, ok := req.(StudySpec)
	if !ok {
		return false
	}
	f.mu.Lock()
	f.specs = append(f.specs, spec)
	f.mu.Unlock()
	*out.(*StudyResponse) = StudyResponse{App: spec.App, Source: SourceExecuted}
	return true
}

func TestScenarioFederatesWireCellsOnly(t *testing.T) {
	fake := &fakeStudyFleet{}
	s := New(Options{Workers: 2, Fleet: fake})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	doc, err := json.Marshal(map[string]any{
		"name":       "mixed",
		"sources":    []any{"minife", map[string]any{"csv": testTraceCSV(t)}},
		"geometries": []any{"1x2x12x48"},
		"noise":      []any{"none", "slowdown:prob=0.5,factor=2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp := postScenario(t, ts.URL, ScenarioRequest{Scenario: string(doc)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var sr ScenarioResponse
	decodeInto(t, resp, &sr)
	// 2 app cells (none + slowdown noise) + 1 trace cell. Only the
	// noise-free app cell is wire-expressible.
	if len(sr.Rows) != 3 || sr.Failed != 0 {
		t.Fatalf("rows %d failed %d", len(sr.Rows), sr.Failed)
	}
	for _, row := range sr.Rows {
		wantFederated := row.Workload == "app:minife" && row.Noise == "none"
		if row.Federated != wantFederated {
			t.Errorf("row %d (%s | %s): federated = %v, want %v", row.Index, row.Workload, row.Noise, row.Federated, wantFederated)
		}
	}
	if len(fake.specs) != 1 || fake.specs[0].App != "minife" {
		t.Fatalf("fleet was offered %+v, want exactly the bare minife cell", fake.specs)
	}
	if fake.specs[0].Geometry == nil || fake.specs[0].Policy == nil || fake.specs[0].Fabric == nil {
		t.Fatal("dispatched wire spec is not fully resolved")
	}
}

// TestScenarioInlineTraceRejectsNonFinite: a NaN or infinite compute time
// in an inline trace is a bad request, refused before any analysis runs.
func TestScenarioInlineTraceRejectsNonFinite(t *testing.T) {
	_, ts := newTestServer(t)
	for _, v := range []string{"NaN", "-Inf"} {
		lines := strings.Split(strings.TrimSpace(testTraceCSV(t)), "\n")
		last := lines[len(lines)-1]
		lines[len(lines)-1] = last[:strings.LastIndex(last, ",")+1] + v
		csv := strings.Join(lines, "\n") + "\n"
		doc, err := json.Marshal(map[string]any{
			"name":    "bad-trace",
			"sources": []any{map[string]any{"csv": csv}},
		})
		if err != nil {
			t.Fatal(err)
		}
		resp := postScenario(t, ts.URL, ScenarioRequest{Scenario: string(doc)})
		var eb errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", v, resp.StatusCode)
		}
		if !strings.Contains(eb.Error, "not finite") {
			t.Fatalf("%s: error %q does not name the non-finite value", v, eb.Error)
		}
	}
}

// TestScenarioInlineTraceRejectsHugeIndexFast: an inline CSV of one row
// whose thread index implies ten million cells is a fast 400 that
// allocates nothing sized by the index (it used to allocate ~87 MiB
// before the refusal; a larger index asked for gigabytes, well inside
// the request body cap).
func TestScenarioInlineTraceRejectsHugeIndexFast(t *testing.T) {
	_, ts := newTestServer(t)
	doc, err := json.Marshal(map[string]any{
		"name":    "hostile-trace",
		"sources": []any{map[string]any{"csv": "app,trial,rank,iteration,thread,compute_seconds\nx,0,0,0,10000000,1\n"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	resp := postScenario(t, ts.URL, ScenarioRequest{Scenario: string(doc)})
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	wantRejected(t, "huge index", resp, http.StatusBadRequest, "missing cell")
	if wall > 2*time.Second {
		t.Fatalf("refusal took %v", wall)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 16<<20 {
		t.Fatalf("refusing the request allocated %d bytes", got)
	}
}
