package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"earlybird/internal/engine"
	"earlybird/internal/scenario"
	"earlybird/internal/serve"
)

// TestDispatchWholeMatchesLocalExecution pins the study federation
// contract: a bare-app study dispatched whole to a fleet worker returns
// the same analysis — bit for bit — as running the identical resolved
// spec on a local engine. engine.RunSpec is
// deterministic and the wire spec carries every field post-resolution,
// so worker and coordinator compute the same study; JSON float encoding
// is shortest-round-trip, so nothing is lost in transit.
func TestDispatchWholeMatchesLocalExecution(t *testing.T) {
	_, w1 := newWorker(t)
	_, w2 := newWorker(t)
	f := newFleet(t, Options{Peers: []string{w1.URL, w2.URL}})
	ctx := context.Background()
	if got := f.Probe(ctx); got != 2 {
		t.Fatalf("healthy = %d, want 2", got)
	}

	spec, err := scenario.Parse([]byte(`
name: fleet-identity
sources: [minife, miniqmc]
geometries: [1x2x8x48]
fabrics: [omnipath, "flat:latency-us=2,gbs=10"]
`))
	if err != nil {
		t.Fatal(err)
	}
	c, err := spec.Compile(scenario.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Verify(); err != nil {
		t.Fatal(err)
	}

	eng := engine.New(0)
	dispatched := 0
	for _, cell := range c.Cells {
		resolved, err := cell.Spec.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		var resp serve.StudyResponse
		if !f.DispatchWhole(ctx, resolved.Key().Hash(), "/v1/study", serve.WireStudySpec(resolved), &resp) {
			t.Fatalf("cell %d was not placed on any worker", cell.Index)
		}
		dispatched++
		local, err := eng.RunSpec(resolved)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resp.Metrics, local.Metrics) {
			t.Errorf("cell %d metrics diverge:\nfleet: %+v\nlocal: %+v", cell.Index, resp.Metrics, local.Metrics)
		}
		if !reflect.DeepEqual(resp.Table1, local.Table1) {
			t.Errorf("cell %d table1 diverges:\nfleet: %+v\nlocal: %+v", cell.Index, resp.Table1, local.Table1)
		}
		if !reflect.DeepEqual(resp.Assessment, local.Assessment) {
			t.Errorf("cell %d assessment diverges:\nfleet: %+v\nlocal: %+v", cell.Index, resp.Assessment, local.Assessment)
		}
	}
	if dispatched != 4 {
		t.Fatalf("dispatched %d cells, want the full 2x2 grid", dispatched)
	}
}

// TestDispatchWholeNoWorkers pins the fallback contract: with no
// healthy worker the dispatch declines instead of erroring, so the
// caller runs the cell locally.
func TestDispatchWholeNoWorkers(t *testing.T) {
	f := newFleet(t, Options{Peers: []string{"http://127.0.0.1:1"}})
	f.snapshotWorkers()[0].healthy.Store(false)
	var resp serve.StudyResponse
	if f.DispatchWhole(context.Background(), 42, "/v1/study", serve.StudySpec{App: "minife"}, &resp) {
		t.Fatal("dispatch claimed placement with zero healthy workers")
	}
}

// coordinatorStudies posts one /v1/study, one /v1/feasibility and a
// two-entry /v1/campaign of bare-app specs to url and returns the
// replies.
func coordinatorStudies(t *testing.T, url string) (serve.StudyResponse, serve.FeasibilityResponse, serve.CampaignResponse) {
	t.Helper()
	geom := fleetGeom()
	post := func(path string, body, out any) {
		t.Helper()
		buf, _ := json.Marshal(body)
		resp, err := http.Post(url+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %s", path, resp.Status)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	var study serve.StudyResponse
	var feas serve.FeasibilityResponse
	var camp serve.CampaignResponse
	post("/v1/study", serve.StudySpec{App: "minife", Geometry: &geom}, &study)
	post("/v1/feasibility", serve.StudySpec{App: "miniqmc", Geometry: &geom}, &feas)
	post("/v1/campaign", serve.CampaignRequest{Specs: []serve.StudySpec{
		{App: "minimd", Geometry: &geom},
		{App: "minife", Geometry: &geom, Policy: &serve.PolicySpec{Alpha: 0.01}},
	}}, &camp)
	if len(camp.Results) != 2 || camp.Failed != 0 {
		t.Fatalf("campaign: %d results, %d failed", len(camp.Results), camp.Failed)
	}
	return study, feas, camp
}

// coordinatorFleetStats reads the fleet section of a coordinator's
// /v1/stats.
func coordinatorFleetStats(t *testing.T, url string) serve.FleetSnapshot {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats serve.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Fleet == nil {
		t.Fatal("stats missing fleet section")
	}
	return *stats.Fleet
}

// TestCoordinatorStudyFederates: a coordinator's /v1/study,
// /v1/feasibility and every /v1/campaign entry dispatch bare-app specs
// whole to a fleet worker, come back marked federated, and carry the
// analysis a single node computes for the same spec.
func TestCoordinatorStudyFederates(t *testing.T) {
	_, w1 := newWorker(t)
	_, w2 := newWorker(t)
	f := newFleet(t, Options{Peers: []string{w1.URL, w2.URL}})
	if got := f.Probe(context.Background()); got != 2 {
		t.Fatalf("healthy = %d, want 2", got)
	}
	coord := httptest.NewServer(serve.New(serve.Options{Workers: 2, Fleet: f}).Handler())
	t.Cleanup(coord.Close)
	_, ref := newWorker(t)

	study, feas, camp := coordinatorStudies(t, coord.URL)
	wantStudy, wantFeas, wantCamp := coordinatorStudies(t, ref.URL)

	same := func(name string, got, want serve.StudyResponse) {
		t.Helper()
		if !got.Federated || want.Federated {
			t.Errorf("%s: federated %v on the coordinator, %v on a single node", name, got.Federated, want.Federated)
		}
		if !reflect.DeepEqual(got.Metrics, want.Metrics) || !reflect.DeepEqual(got.Table1, want.Table1) ||
			!reflect.DeepEqual(got.Assessment, want.Assessment) {
			t.Errorf("%s: analysis diverges from a single node's", name)
		}
	}
	same("study", study, wantStudy)
	for i := range wantCamp.Results {
		same("campaign entry", camp.Results[i].StudyResponse, wantCamp.Results[i].StudyResponse)
	}
	if !feas.Federated || wantFeas.Federated {
		t.Errorf("feasibility: federated %v on the coordinator, %v on a single node", feas.Federated, wantFeas.Federated)
	}
	if !reflect.DeepEqual(feas.Assessment, wantFeas.Assessment) {
		t.Error("feasibility: assessment diverges from a single node's")
	}
	if snap := coordinatorFleetStats(t, coord.URL); snap.CellsDispatched != 4 || snap.LocalFallbacks != 0 {
		t.Errorf("fleet dispatched %d studies with %d local fallbacks, want 4 and 0", snap.CellsDispatched, snap.LocalFallbacks)
	}
}

// TestCoordinatorStudyLocalFallback: with no healthy worker, the same
// requests run on the coordinator itself, unmarked, and local_fallbacks
// counts every one of them.
func TestCoordinatorStudyLocalFallback(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	f := newFleet(t, Options{Peers: []string{dead.URL}})
	f.Probe(context.Background()) // demotes the dead worker
	coord := httptest.NewServer(serve.New(serve.Options{Workers: 2, Fleet: f}).Handler())
	t.Cleanup(coord.Close)

	study, feas, camp := coordinatorStudies(t, coord.URL)
	if study.Federated || feas.Federated || camp.Results[0].Federated || camp.Results[1].Federated {
		t.Error("a study claims federation with no healthy worker")
	}
	if study.Source != serve.SourceExecuted {
		t.Errorf("study source %q, want executed locally", study.Source)
	}
	if snap := coordinatorFleetStats(t, coord.URL); snap.LocalFallbacks != 4 || snap.CellsDispatched != 0 {
		t.Errorf("local fallbacks %d, dispatched %d; want 4 and 0", snap.LocalFallbacks, snap.CellsDispatched)
	}
}
