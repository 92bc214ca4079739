package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"earlybird/internal/cluster"
)

// TestStudyRejectsAnalysisOutOfRange: /v1/study, /v1/feasibility and
// /v1/campaign refuse a negative partition size, an alpha outside
// [0, 1) and a negative laggard threshold; they used to answer 200 with
// an analysis computed from them.
func TestStudyRejectsAnalysisOutOfRange(t *testing.T) {
	_, ts := newTestServer(t)
	geom := ptr(testGeom())
	for want, spec := range map[string]StudySpec{
		"bytes_per_partition":   {App: "minife", Geometry: geom, BytesPerPartition: -5},
		"alpha":                 {App: "minife", Geometry: geom, Policy: &PolicySpec{Alpha: 1.5}},
		"laggard_threshold_sec": {App: "minife", Geometry: geom, Policy: &PolicySpec{LaggardThresholdSec: -1e-3}},
	} {
		for _, path := range []string{"/v1/study", "/v1/feasibility"} {
			wantRejected(t, path+" "+want, postJSON(t, ts.URL+path, spec), http.StatusUnprocessableEntity, want)
		}
		var out CampaignResponse
		decodeInto(t, postJSON(t, ts.URL+"/v1/campaign", CampaignRequest{Specs: []StudySpec{spec}}), &out)
		if out.Failed != 1 || !strings.Contains(out.Results[0].Err, want) {
			t.Errorf("/v1/campaign %s: failed %d, entry %+v", want, out.Failed, out.Results[0])
		}
	}
}

// TestSweepRejectsAnalysisOutOfRange: a sweep cell on an out-of-range
// alpha or laggard-threshold axis entry is an error row.
func TestSweepRejectsAnalysisOutOfRange(t *testing.T) {
	s, _ := newTestServer(t)
	geom := testGeom()
	for want, req := range map[string]SweepRequest{
		"alpha":                 {Apps: []string{"minife"}, Geometries: []cluster.Config{geom}, Alphas: []float64{1.5}},
		"laggard_threshold_sec": {Apps: []string{"minife"}, Geometries: []cluster.Config{geom}, LaggardThresholdsSec: []float64{-1e-3}},
	} {
		rec := httptest.NewRecorder()
		body, _ := json.Marshal(req)
		s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sweep", bytes.NewReader(body)))
		var row SweepRow
		if err := json.Unmarshal(bytes.TrimSpace(rec.Body.Bytes()), &row); err != nil {
			t.Fatalf("sweep %s: bad row %q: %v", want, rec.Body.String(), err)
		}
		if !strings.Contains(row.Err, want) {
			t.Errorf("sweep %s: row error %q", want, row.Err)
		}
	}
}

// TestShardRejectsAnalysisOutOfRange: /v1/shard refuses an alpha
// outside [0, 1) and a negative laggard threshold with a 422.
func TestShardRejectsAnalysisOutOfRange(t *testing.T) {
	_, ts := newTestServer(t)
	geom := testGeom()
	for want, req := range map[string]ShardRequest{
		"alpha":                 {App: "minife", Geometry: &geom, Alpha: 1.5, TrialHi: 1},
		"laggard_threshold_sec": {App: "minife", Geometry: &geom, LaggardSec: -1e-3, TrialHi: 1},
	} {
		wantRejected(t, "/v1/shard "+want, postJSON(t, ts.URL+"/v1/shard", req), http.StatusUnprocessableEntity, want)
	}
}
