package fleet

import (
	"context"
	"reflect"
	"testing"

	"earlybird/internal/engine"
	"earlybird/internal/scenario"
	"earlybird/internal/serve"
)

// TestDispatchStudyMatchesLocalExecution pins the scenario federation
// contract: a wire-expressible scenario cell dispatched whole to a
// fleet worker returns the same analysis — bit for bit — as running the
// identical resolved spec on a local engine. engine.RunSpec is
// deterministic and the wire spec carries every field post-resolution,
// so worker and coordinator compute the same study; JSON float encoding
// is shortest-round-trip, so nothing is lost in transit.
func TestDispatchStudyMatchesLocalExecution(t *testing.T) {
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

// TestDispatchStudyNoWorkers pins the fallback contract: with no
// healthy worker the dispatch declines instead of erroring, so the
// caller runs the cell locally.
func TestDispatchStudyNoWorkers(t *testing.T) {
	f := newFleet(t, Options{Peers: []string{"http://127.0.0.1:1"}})
	f.snapshotWorkers()[0].healthy.Store(false)
	var resp serve.StudyResponse
	if f.DispatchWhole(context.Background(), 42, "/v1/study", serve.StudySpec{App: "minife"}, &resp) {
		t.Fatal("dispatch claimed placement with zero healthy workers")
	}
}
