package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"earlybird/internal/partcomm"
)

// wantRejected fails unless resp has the given status and an error
// that mentions want.
func wantRejected(t *testing.T, name string, resp *http.Response, status int, want string) {
	t.Helper()
	defer resp.Body.Close()
	var eb errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if resp.StatusCode != status || !strings.Contains(eb.Error, want) {
		t.Fatalf("%s: status %d error %q, want %d mentioning %q", name, resp.StatusCode, eb.Error, status, want)
	}
}

// TestStudyRejectsBinTimeoutBelowFloor: /v1/study refuses a bin timeout
// below partcomm.MinBinTimeoutSec as an unprocessable spec (422) (a
// 1 ns timeout used to cost span ÷ 1 ns loop steps per block), and
// still runs one at the floor.
func TestStudyRejectsBinTimeoutBelowFloor(t *testing.T) {
	_, ts := newTestServer(t)
	geom := ptr(testGeom())
	for name, spec := range map[string]StudySpec{
		"policy":          {App: "minife", Geometry: geom, Policy: &PolicySpec{BinTimeoutSec: 1e-9}},
		"policy negative": {App: "minife", Geometry: geom, Policy: &PolicySpec{BinTimeoutSec: -1e-3}},
	} {
		wantRejected(t, name, postJSON(t, ts.URL+"/v1/study", spec), http.StatusUnprocessableEntity, "bin_timeout_sec")
	}
	resp := postJSON(t, ts.URL+"/v1/study", StudySpec{App: "minife", Geometry: geom,
		Policy: &PolicySpec{BinTimeoutSec: partcomm.MinBinTimeoutSec}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("timeout at the floor: status %d, want 200", resp.StatusCode)
	}
}

// TestStrategiesRejectsBinTimeoutBelowFloor: the /v1/strategies timeout
// axis has the same floor.
func TestStrategiesRejectsBinTimeoutBelowFloor(t *testing.T) {
	_, ts := newTestServer(t)
	resp := postJSON(t, ts.URL+"/v1/strategies", StrategiesRequest{Apps: []string{"minife"}, TimeoutsSec: []float64{1e-3, 1e-9}})
	wantRejected(t, "timeouts_sec", resp, http.StatusBadRequest, "floor")
}

// TestScenarioRejectsBinTimeoutBelowFloor: so does the scenario
// bin-timeout axis.
func TestScenarioRejectsBinTimeoutBelowFloor(t *testing.T) {
	_, ts := newTestServer(t)
	doc := `{"name": "tiny-bins", "sources": [{"app": "minife"}], "bin_timeouts_ms": [0.000001]}`
	wantRejected(t, "bin_timeouts_ms", postScenario(t, ts.URL, ScenarioRequest{Scenario: doc}), http.StatusBadRequest, "floor")
}

// TestScenarioInlineTraceRejectsBinSpanOverCap: an in-floor timeout over
// an inline trace whose block spans more than partcomm.MaxBinsPerBlock
// bins is refused at compile time rather than spun on.
func TestScenarioInlineTraceRejectsBinSpanOverCap(t *testing.T) {
	_, ts := newTestServer(t)
	lines := strings.Split(strings.TrimSpace(testTraceCSV(t)), "\n")
	last := lines[len(lines)-1]
	lines[len(lines)-1] = last[:strings.LastIndex(last, ",")+1] + "10000"
	doc, err := json.Marshal(map[string]any{
		"name":    "wide-trace",
		"sources": []any{map[string]any{"csv": strings.Join(lines, "\n") + "\n"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantRejected(t, "inline span", postScenario(t, ts.URL, ScenarioRequest{Scenario: string(doc)}), http.StatusBadRequest, "bins")
}
