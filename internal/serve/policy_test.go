package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"earlybird/internal/analysis"
	"earlybird/internal/cluster"
	"earlybird/internal/dlb"
	"earlybird/internal/engine"
)

// dlbGeom is a fast geometry with enough ranks that LeWI's laggard rule
// actually fires on minife (testGeom's two ranks are too balanced to
// cross the 1.25x factor).
func dlbGeom() cluster.Config {
	return cluster.Config{Trials: 1, Ranks: 4, Iterations: 12, Threads: 48, Seed: 1}
}

// strictDecode mirrors decodeBody's strictness for wire-level tests.
func strictDecode(t *testing.T, payload []byte, v any) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		t.Fatalf("decoding %s: %v", payload, err)
	}
}

// resolveWire decodes a raw study payload and resolves it to its engine
// spec key — the identity the coalescing stack executes on.
func resolveWire(t *testing.T, payload []byte) engine.SpecKey {
	t.Helper()
	var wire StudySpec
	strictDecode(t, payload, &wire)
	sp, err := wire.toSpec()
	if err != nil {
		t.Fatalf("%s: %v", payload, err)
	}
	resolved, err := sp.Resolve()
	if err != nil {
		t.Fatalf("%s: %v", payload, err)
	}
	return resolved.Key()
}

// TestPolicyEnvelopeAdapterEquivalence: spellings of one policy
// envelope resolve to one execution key — an explicit static DLB policy
// is the omitted one — and a DLB policy changes the key.
func TestPolicyEnvelopeAdapterEquivalence(t *testing.T) {
	static := resolveWire(t, []byte(`{"app":"minife","geometry_name":"quick"}`))
	explicitStatic := resolveWire(t,
		[]byte(`{"app":"minife","geometry_name":"quick","policy":{"dlb":{"policy":"static"}}}`))
	lewi := resolveWire(t,
		[]byte(`{"app":"minife","geometry_name":"quick","policy":{"dlb":{"policy":"lewi"}}}`))
	if static != explicitStatic {
		t.Fatal("explicit static policy resolves differently from the omitted one")
	}
	if static == lewi {
		t.Fatal("lewi policy shares the static execution key")
	}
}

// TestStudyPolicyEnvelope: /v1/study accepts the envelope end to end —
// the DLB policy reaches the runtime (different metrics), the response
// echoes the resolved policy, and invalid policies are rejected.
func TestStudyPolicyEnvelope(t *testing.T) {
	_, ts := newTestServer(t)
	geom := dlbGeom()

	var static, lewi StudyResponse
	decodeInto(t, postJSON(t, ts.URL+"/v1/study", StudySpec{App: "minife", Geometry: &geom}), &static)
	resp := postJSON(t, ts.URL+"/v1/study", StudySpec{App: "minife", Geometry: &geom,
		Policy: &PolicySpec{DLB: &dlb.Spec{Policy: dlb.PolicyLeWI}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lewi study: status %s", resp.Status)
	}
	decodeInto(t, resp, &lewi)

	if static.DLB != (dlb.Spec{}) {
		t.Fatalf("static study echoed policy %+v", static.DLB)
	}
	if lewi.DLB.Policy != dlb.PolicyLeWI || lewi.DLB.LaggardFactor != dlb.DefaultLaggardFactor {
		t.Fatalf("lewi study echoed %+v, want the resolved lewi policy", lewi.DLB)
	}
	if reflect.DeepEqual(static.Metrics, lewi.Metrics) {
		t.Fatal("lewi study produced the static metrics; the policy never reached the runtime")
	}

	bad := postJSON(t, ts.URL+"/v1/study", StudySpec{App: "minife", Geometry: &geom,
		Policy: &PolicySpec{DLB: &dlb.Spec{Policy: "turbo"}}})
	bad.Body.Close()
	if bad.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("invalid policy: status %s, want 422", bad.Status)
	}

	// The policy knobs travel only in the envelope: a top-level flat
	// field is an unknown field.
	flat, err := http.Post(ts.URL+"/v1/study", "application/json",
		bytes.NewReader([]byte(`{"app":"minife","geometry_name":"quick","alpha":0.01}`)))
	if err != nil {
		t.Fatal(err)
	}
	flat.Body.Close()
	if flat.StatusCode != http.StatusBadRequest {
		t.Fatalf("top-level alpha: status %s, want 400", flat.Status)
	}
}

// TestSweepDLBAxis: the sweep grid crosses the DLB axis like any other,
// rows echo their resolved policy, and the two policies produce
// different data.
func TestSweepDLBAxis(t *testing.T) {
	_, ts := newTestServer(t)
	geom := dlbGeom()
	resp := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{
		Apps: []string{"minife"}, Geometries: []cluster.Config{geom},
		DLBs: []dlb.Spec{{}, {Policy: dlb.PolicyLeWI}},
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	rows := map[string]SweepRow{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var row SweepRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatal(err)
		}
		if row.Err != "" {
			t.Fatalf("row %d: %s", row.Index, row.Err)
		}
		rows[row.DLB.Name()] = row
	}
	if len(rows) != 2 {
		t.Fatalf("got %d distinct policies, want 2", len(rows))
	}
	if rows["lewi"].DLB.LaggardFactor != dlb.DefaultLaggardFactor {
		t.Fatalf("lewi row echoed %+v, want the resolved policy", rows["lewi"].DLB)
	}
	if rows["static"].Metrics == rows["lewi"].Metrics {
		t.Fatal("static and lewi sweep cells produced identical metrics")
	}
}

// TestServerDefaultDLB: a server started with a default policy applies
// it to requests that leave theirs unset; an explicit static envelope
// still overrides it.
func TestServerDefaultDLB(t *testing.T) {
	s := New(Options{Workers: 4, DefaultDLB: dlb.Spec{Policy: dlb.PolicyLeWI}})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	geom := dlbGeom()

	var defaulted, explicit StudyResponse
	decodeInto(t, postJSON(t, ts.URL+"/v1/study", StudySpec{App: "minife", Geometry: &geom}), &defaulted)
	if defaulted.DLB.Policy != dlb.PolicyLeWI {
		t.Fatalf("server default not applied: %+v", defaulted.DLB)
	}
	decodeInto(t, postJSON(t, ts.URL+"/v1/study", StudySpec{App: "minife", Geometry: &geom,
		Policy: &PolicySpec{DLB: &dlb.Spec{Policy: dlb.PolicyStatic}}}), &explicit)
	if explicit.DLB != (dlb.Spec{}) {
		t.Fatalf("explicit static did not override the server default: %+v", explicit.DLB)
	}
	if reflect.DeepEqual(defaulted.Metrics, explicit.Metrics) {
		t.Fatal("defaulted and explicit-static studies produced identical metrics")
	}
}

// TestShardDLBMergeMatchesLocal: the federation exactness contract holds
// under rebalancing — per-trial balancer state means shard merges stay
// bit-identical to local execution for the moment-derived metrics.
func TestShardDLBMergeMatchesLocal(t *testing.T) {
	s, ts := newTestServer(t)
	geom := shardGeomMulti()
	policy, err := dlb.Spec{Policy: dlb.PolicyDROM, ReactionIters: 2}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	cell := SweepCell{
		App: "minife", Geometry: geom,
		Alpha: 0.05, LaggardThresholdSec: analysis.DefaultLaggardThresholdSec,
		DLB: policy,
	}
	want := s.sweepCell(cell)
	if want.Err != "" {
		t.Fatal(want.Err)
	}

	macc := analysis.NewMetricsAccumulator(cell.App, cell.LaggardThresholdSec)
	for _, rg := range [][2]int{{0, 2}, {2, 6}} {
		sr := fetchShard(t, ts.URL, ShardRequest{
			App: cell.App, Geometry: &geom,
			Alpha: cell.Alpha, LaggardSec: cell.LaggardThresholdSec,
			DLB: &policy, TrialLo: rg[0], TrialHi: rg[1],
		})
		if sr.DLB != policy {
			t.Fatalf("shard echoed policy %+v, want %+v", sr.DLB, policy)
		}
		dec := new(analysis.MetricsAccumulator)
		if err := dec.UnmarshalBinary(sr.MetricsState); err != nil {
			t.Fatal(err)
		}
		macc.Merge(dec)
	}
	got := macc.Finalize()
	if got.MeanMedianSec != want.Metrics.MeanMedianSec ||
		got.LaggardFraction != want.Metrics.LaggardFraction ||
		got.IdleRatioProc != want.Metrics.IdleRatioProc {
		t.Fatalf("rebalanced shard merge diverged from local:\n got %+v\nwant %+v", got, want.Metrics)
	}
}

// TestStrategiesDLBPolicy: /v1/strategies evaluates its grid on the
// requested policy's dataset and keys its result cache per policy.
func TestStrategiesDLBPolicy(t *testing.T) {
	s, ts := newTestServer(t)
	geom := dlbGeom()

	run := func(policy *dlb.Spec) StrategiesResponse {
		t.Helper()
		resp := postJSON(t, ts.URL+"/v1/strategies", StrategiesRequest{
			Apps: []string{"minife"}, Geometries: []cluster.Config{geom}, DLB: policy,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %s", resp.Status)
		}
		var out StrategiesResponse
		decodeInto(t, resp, &out)
		if out.Failed != 0 {
			t.Fatalf("failed rows: %+v", out)
		}
		return out
	}

	static := run(nil)
	lewi := run(&dlb.Spec{Policy: dlb.PolicyLeWI})
	if lewi.Rows[0].DLB.Policy != dlb.PolicyLeWI {
		t.Fatalf("lewi row echoed %+v", lewi.Rows[0].DLB)
	}
	if lewi.Rows[0].Source != SourceExecuted {
		t.Fatalf("lewi cell source %q: a new policy must not share the static cell's cache entry", lewi.Rows[0].Source)
	}
	if reflect.DeepEqual(static.Rows[0].Results, lewi.Rows[0].Results) {
		t.Fatal("strategy results identical across policies")
	}
	if got := s.Engine().Executions(); got != 2 {
		t.Fatalf("executions = %d, want one per policy", got)
	}
}
