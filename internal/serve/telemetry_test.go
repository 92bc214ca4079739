package serve

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"earlybird/internal/cluster"
	"earlybird/internal/dlb"
	"earlybird/internal/telemetry"
)

// TestProgressStreamMonotone streams /v1/progress?id= for an in-flight
// study (a synthetic tracker fed live, so the schedule is controlled)
// and asserts every acceptance property of the stream: multiple NDJSON
// lines, monotone trial and block counts, ETA >= 0, efficiency in
// [0, 1], and a final line with done=true after which the stream ends.
func TestProgressStreamMonotone(t *testing.T) {
	s, ts := newTestServer(t)
	tr := telemetry.New(telemetry.StudyInfo{
		ID: "feedme", App: "minife",
		Trials: 4, Ranks: 5, Iterations: 10, Threads: 8, Workers: 2,
	})
	s.Telemetry().Register(tr)

	total := 4 * 5 * 10
	go func() {
		for fed := 0; fed < total; fed += 10 {
			for i := 0; i < 10; i++ {
				tr.ObserveFill(1, 8, time.Millisecond)
			}
			time.Sleep(4 * time.Millisecond)
		}
		tr.ObserveLend(1)
		s.Telemetry().Finish(tr)
	}()

	resp, err := http.Get(ts.URL + "/v1/progress?id=feedme&interval_ms=10")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}

	var lines []telemetry.Progress
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var p telemetry.Progress
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, p)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) < 2 {
		t.Fatalf("got %d progress lines, want a live stream (>= 2)", len(lines))
	}
	for i, p := range lines {
		if p.ID != "feedme" || p.App != "minife" {
			t.Fatalf("line %d identifies %q/%q", i, p.ID, p.App)
		}
		if p.ETASec < 0 {
			t.Fatalf("line %d: negative ETA %v", i, p.ETASec)
		}
		if p.Efficiency < 0 || p.Efficiency > 1 {
			t.Fatalf("line %d: efficiency %v out of [0,1]", i, p.Efficiency)
		}
		if i == 0 {
			continue
		}
		if p.TrialsDone < lines[i-1].TrialsDone {
			t.Fatalf("trials_done went backwards at line %d: %d -> %d", i, lines[i-1].TrialsDone, p.TrialsDone)
		}
		if p.BlocksDone < lines[i-1].BlocksDone {
			t.Fatalf("blocks_done went backwards at line %d: %d -> %d", i, lines[i-1].BlocksDone, p.BlocksDone)
		}
	}
	last := lines[len(lines)-1]
	if !last.Done {
		t.Fatalf("stream ended without done=true: %+v", last)
	}
	if last.BlocksDone != int64(total) || last.TrialsDone != 4 {
		t.Fatalf("final line %d/%d blocks, %d trials; want %d blocks, 4 trials",
			last.BlocksDone, last.BlocksTotal, last.TrialsDone, total)
	}
	if last.LendEvents != 1 {
		t.Fatalf("final line lend events = %d, want 1", last.LendEvents)
	}
}

// TestProgressIDReachableAfterStudy runs a real study end to end and
// checks its deterministic progress ID resolves against /v1/progress —
// the completed ring answers with the frozen final snapshot.
func TestProgressIDReachableAfterStudy(t *testing.T) {
	_, ts := newTestServer(t)
	geom := testGeom()
	var study StudyResponse
	decodeInto(t, postJSON(t, ts.URL+"/v1/study", StudySpec{App: "minife", Geometry: ptr(geom)}), &study)

	id := ProgressID("minife", geom, dlb.Spec{})
	resp, err := http.Get(ts.URL + "/v1/progress?id=" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d for progress id %s", resp.StatusCode, id)
	}
	var p telemetry.Progress
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		t.Fatal(err)
	}
	wantBlocks := int64(geom.Trials) * int64(geom.Ranks) * int64(geom.Iterations)
	if !p.Done || p.BlocksDone != wantBlocks || p.Samples != int64(geom.Samples()) {
		t.Fatalf("final snapshot %+v; want done with %d blocks, %d samples", p, wantBlocks, geom.Samples())
	}

	// An unknown ID is a 404, not an empty stream.
	resp2, err := http.Get(ts.URL + "/v1/progress?id=doesnotexist")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: status %d, want 404", resp2.StatusCode)
	}
}

// promSampleRe matches one exposition sample line: name, optional
// labels, and a value.
var promSampleRe = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[+-]?Inf|[+-]?[0-9].*|[0-9.e+-]+)$`)

// scrapeMetrics fetches /metrics and validates it is structurally
// parseable Prometheus exposition text: correct content type, every
// sample line well formed, every sample's family declared by a TYPE
// line first, and histogram buckets cumulative and consistent with
// _count. It returns the raw scrape.
func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type %q", ct)
	}

	var body strings.Builder
	typed := map[string]string{} // family -> type
	lastBucket := map[string]int64{}
	bucketCount := map[string]int64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		body.WriteString(line)
		body.WriteByte('\n')
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			if _, dup := typed[f[2]]; dup {
				t.Fatalf("family %s declared twice", f[2])
			}
			typed[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promSampleRe.MatchString(line) {
			t.Fatalf("unparseable sample line %q", line)
		}
		name := line[:strings.IndexAny(line, "{ ")]
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if f := strings.TrimSuffix(name, suffix); f != name && typed[f] == "histogram" {
				family = f
			}
		}
		if _, ok := typed[family]; !ok {
			t.Fatalf("sample %q has no preceding TYPE declaration", line)
		}
		if typed[family] == "histogram" && strings.HasSuffix(name, "_bucket") {
			idx := strings.LastIndex(line, `le="`)
			if idx < 0 {
				t.Fatalf("bucket line without le label: %q", line)
			}
			series := line[:idx]
			v, err := strconv.ParseInt(line[strings.LastIndex(line, " ")+1:], 10, 64)
			if err != nil {
				t.Fatalf("bucket line %q: %v", line, err)
			}
			if v < lastBucket[series] {
				t.Fatalf("histogram buckets not cumulative at %q", line)
			}
			lastBucket[series] = v
			if strings.Contains(line, `le="+Inf"`) {
				bucketCount[series] = v
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(bucketCount) == 0 {
		t.Fatal("scrape contained no histogram buckets")
	}
	return body.String()
}

// TestMetricsPrometheusParseable exercises the server, scrapes
// /metrics, validates the exposition structurally and pins the
// documented families. When METRICS_SCRAPE_OUT is set (the CI artifact
// path) the scrape is also written there.
func TestMetricsPrometheusParseable(t *testing.T) {
	_, ts := newTestServer(t)
	decodeInto(t, postJSON(t, ts.URL+"/v1/study", StudySpec{App: "minife", Geometry: ptr(testGeom())}),
		&StudyResponse{})
	// A repeat gives the result cache a hit and the study endpoint a
	// second latency observation.
	decodeInto(t, postJSON(t, ts.URL+"/v1/study", StudySpec{App: "minife", Geometry: ptr(testGeom())}),
		&StudyResponse{})

	body := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		"earlybird_uptime_seconds",
		`earlybird_http_requests_total{path="/v1/study"} 2`,
		`earlybird_http_request_duration_seconds_bucket{path="/v1/study",le="+Inf"} 2`,
		`earlybird_http_request_duration_seconds_count{path="/v1/study"} 2`,
		`earlybird_study_results_total{source="executed"} 1`,
		`earlybird_study_results_total{source="result_cache"} 1`,
		"earlybird_engine_dataset_executions_total 1",
		"earlybird_studies_started_total 1",
		"earlybird_studies_finished_total 1",
		"earlybird_fill_blocks_total 24",
		"earlybird_fill_samples_total 1152",
		"earlybird_fill_busy_seconds_total",
		"earlybird_dlb_lend_events_total 0",
		"earlybird_fill_efficiency ",
		"earlybird_fill_efficiency_live 0",
		"earlybird_admission_watermark 0",
		"earlybird_admission_sheds_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}

	if out := os.Getenv("METRICS_SCRAPE_OUT"); out != "" {
		if err := os.WriteFile(out, []byte(body), 0o644); err != nil {
			t.Fatalf("writing scrape artifact: %v", err)
		}
	}
}

// degradedClock returns a tracker whose measured efficiency is fixed:
// busy seconds over workers x elapsed.
func degradedTracker(id string, eff float64) *telemetry.Tracker {
	base := time.Unix(1700000000, 0)
	now := base
	tr := telemetry.NewWithClock(telemetry.StudyInfo{
		ID: id, App: "synthetic", Trials: 10, Ranks: 1, Iterations: 1, Workers: 1,
	}, func() time.Time { return now })
	now = base.Add(10 * time.Second)
	tr.ObserveFill(1, 1, time.Duration(eff*10*float64(time.Second)))
	return tr
}

// TestAdmissionShedsUnderWatermark is the deterministic admission load
// test: a synthetic in-flight study pins the live efficiency below the
// watermark, new materialising studies are shed with 503 + Retry-After,
// cache hits and /v1/sweep stay served, and admission reopens the
// moment the degraded study finishes.
func TestAdmissionShedsUnderWatermark(t *testing.T) {
	s := New(Options{Workers: 2, AdmissionWatermark: 0.5})
	ts := newHTTPServer(t, s)

	warm := StudySpec{App: "minife", Geometry: ptr(testGeom())}
	decodeInto(t, postJSON(t, ts.URL+"/v1/study", warm), &StudyResponse{})

	// Degraded in-flight study: efficiency 0.1 < watermark 0.5.
	tr := degradedTracker("degraded", 0.1)
	s.Telemetry().Register(tr)
	if eff, live := s.Telemetry().Efficiency(); !live || eff >= 0.5 {
		t.Fatalf("synthetic efficiency = %v (live %v), want < 0.5", eff, live)
	}

	// A new materialising study is shed.
	fresh := testGeom()
	fresh.Seed = 999
	resp := postJSON(t, ts.URL+"/v1/study", StudySpec{App: "minife", Geometry: ptr(fresh)})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After %q, want an integer >= 1", resp.Header.Get("Retry-After"))
	}
	var eb struct {
		Error string `json:"error"`
	}
	if json.NewDecoder(resp.Body).Decode(&eb) != nil || !strings.Contains(eb.Error, "admission shed") {
		t.Fatalf("error body %+v", eb)
	}
	if got := s.admissionSheds.Load(); got != 1 {
		t.Fatalf("sheds = %d, want 1", got)
	}

	// The cached study is still served — admission gates execution, not
	// answers.
	var cached StudyResponse
	decodeInto(t, postJSON(t, ts.URL+"/v1/study", warm), &cached)
	if cached.Source != SourceResultCache {
		t.Fatalf("cached answer source %q", cached.Source)
	}

	// /v1/sweep is exempt (it is the bounded-memory path shed clients
	// are pointed at). The sweep cell was warmed above, so this also
	// cannot re-materialise.
	sweepResp := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{Apps: []string{"minife"}, Geometries: []cluster.Config{testGeom()}})
	defer sweepResp.Body.Close()
	if sweepResp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d under shed conditions", sweepResp.StatusCode)
	}

	// Finishing the degraded study removes the signal; admission reopens.
	s.Telemetry().Finish(tr)
	var after StudyResponse
	decodeInto(t, postJSON(t, ts.URL+"/v1/study", StudySpec{App: "minife", Geometry: ptr(fresh)}), &after)
	if after.Source != SourceExecuted {
		t.Fatalf("post-recovery source %q, want executed", after.Source)
	}
	if got := s.admissionSheds.Load(); got != 1 {
		t.Fatalf("sheds = %d after recovery, want still 1", got)
	}
}

// TestStatsAndHealthzCarryTelemetry checks the enriched /v1/stats
// sections and the capacity-bearing healthz body.
func TestStatsAndHealthzCarryTelemetry(t *testing.T) {
	s := New(Options{Workers: 2, AdmissionWatermark: 0.25})
	ts := newHTTPServer(t, s)
	decodeInto(t, postJSON(t, ts.URL+"/v1/study", StudySpec{App: "miniqmc", Geometry: ptr(testGeom())}), &StudyResponse{})

	var stats StatsResponse
	decodeInto(t, mustGet(t, ts.URL+"/v1/stats"), &stats)
	if stats.Telemetry.StudiesStarted != 1 || stats.Telemetry.StudiesFinished != 1 {
		t.Fatalf("telemetry stats %+v", stats.Telemetry)
	}
	if stats.Telemetry.Blocks != 24 || stats.Telemetry.Samples != 1152 {
		t.Fatalf("telemetry counters %d blocks / %d samples", stats.Telemetry.Blocks, stats.Telemetry.Samples)
	}
	if stats.Admission.Watermark != 0.25 || stats.Admission.SignalLive || stats.Admission.Sheds != 0 {
		t.Fatalf("admission stats %+v", stats.Admission)
	}

	var hz HealthzResponse
	decodeInto(t, mustGet(t, ts.URL+"/v1/healthz"), &hz)
	if hz.Status != "ok" || hz.ActiveStudies != 0 || hz.Capacity != 1 {
		t.Fatalf("idle healthz %+v", hz)
	}

	// A degraded in-flight study pulls the advertised capacity down to
	// its efficiency (floored at minWorkerCapacity).
	tr := degradedTracker("drag", 0.02)
	s.Telemetry().Register(tr)
	decodeInto(t, mustGet(t, ts.URL+"/v1/healthz"), &hz)
	if hz.ActiveStudies != 1 || hz.Capacity != minWorkerCapacity {
		t.Fatalf("degraded healthz %+v, want capacity floor %v", hz, minWorkerCapacity)
	}
	s.Telemetry().Finish(tr)
}

// TestObservabilityHandler: the standalone handler (the -metrics-addr
// listener) serves exactly the observability surface.
func TestObservabilityHandler(t *testing.T) {
	s, main := newTestServer(t)
	decodeInto(t, postJSON(t, main.URL+"/v1/study", StudySpec{App: "minife", Geometry: ptr(testGeom())}), &StudyResponse{})

	obs := httptest.NewServer(s.ObservabilityHandler())
	t.Cleanup(obs.Close)
	scrapeMetrics(t, obs.URL)
	var hz HealthzResponse
	decodeInto(t, mustGet(t, obs.URL+"/v1/healthz"), &hz)
	if hz.Status != "ok" {
		t.Fatalf("healthz %+v", hz)
	}
	resp := mustGet(t, obs.URL+"/v1/progress")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("progress status %d", resp.StatusCode)
	}
	// The observability surface must not expose the execution API.
	r2, err := http.Post(obs.URL+"/v1/study", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode == http.StatusOK {
		t.Fatal("observability listener served /v1/study")
	}
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func newHTTPServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestProgressLiveHugeGeometryStudy drives the acceptance scenario
// end-to-end with no synthetic feeding: a real 76.8M-sample
// HugeGeometry sweep cell runs on the streaming fill while a second
// client polls /v1/progress?id= and must see live, strictly advancing
// trial/block counts before the study completes. Skipped in -short and
// under -race, like the example-level HugeGeometry test.
func TestProgressLiveHugeGeometryStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("76.8M-sample study skipped in -short")
	}
	if raceEnabled {
		t.Skip("76.8M-sample study skipped under -race")
	}
	s, ts := newTestServer(t)
	_ = s

	geom := cluster.HugeConfig()
	id := ProgressID("minife", geom, dlb.Spec{})

	sweepDone := make(chan error, 1)
	go func() {
		body := strings.NewReader(`{"apps":["minife"],"geometries":[` +
			`{"trials":10,"ranks":32,"iterations":5000,"threads":48,"seed":1}]}`)
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", body)
		if err != nil {
			sweepDone <- err
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
		}
		sweepDone <- sc.Err()
	}()

	// Poll until the tracker appears, then watch it advance. The study
	// takes seconds; distinct polls a few ms apart must observe
	// different monotone counts while done is still false.
	var live []telemetry.Progress
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/progress?id=" + id)
		if err != nil {
			t.Fatal(err)
		}
		var p telemetry.Progress
		decodeErr := json.NewDecoder(resp.Body).Decode(&p)
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			time.Sleep(5 * time.Millisecond)
			continue // not started yet
		}
		if resp.StatusCode != http.StatusOK || decodeErr != nil {
			t.Fatalf("progress poll: status %d, err %v", resp.StatusCode, decodeErr)
		}
		if !p.Done {
			live = append(live, p)
		}
		if p.Done || len(live) >= 5 {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	if err := <-sweepDone; err != nil {
		t.Fatalf("sweep failed: %v", err)
	}
	if len(live) < 2 {
		t.Fatalf("observed only %d live (not-done) snapshots of the huge study", len(live))
	}
	advanced := false
	for i := 1; i < len(live); i++ {
		if live[i].BlocksDone < live[i-1].BlocksDone || live[i].TrialsDone < live[i-1].TrialsDone {
			t.Fatalf("counts went backwards: %+v then %+v", live[i-1], live[i])
		}
		if live[i].BlocksDone > live[i-1].BlocksDone {
			advanced = true
		}
		if live[i].Efficiency < 0 || live[i].Efficiency > 1 {
			t.Fatalf("efficiency out of range: %+v", live[i])
		}
		if live[i].ETASec < 0 {
			t.Fatalf("negative ETA: %+v", live[i])
		}
	}
	if !advanced {
		t.Fatal("block count never advanced across live snapshots")
	}

	// After the sweep drains, the same id reports the frozen final
	// snapshot: done, every trial accounted for.
	resp := mustGet(t, ts.URL+"/v1/progress?id="+id)
	defer resp.Body.Close()
	var final telemetry.Progress
	if err := json.NewDecoder(resp.Body).Decode(&final); err != nil {
		t.Fatal(err)
	}
	if !final.Done || final.TrialsDone != geom.Trials {
		t.Fatalf("final snapshot = %+v, want done with %d trials", final, geom.Trials)
	}
}
