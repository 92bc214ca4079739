package engine

import (
	"testing"

	"earlybird/internal/cluster"
	"earlybird/internal/dlb"
	"earlybird/internal/trace"
	"earlybird/internal/workload"
)

func TestSetMaxDatasetsEvictsLRU(t *testing.T) {
	e := New(2)
	m := workload.DefaultMiniFE()
	g1, g2, g3 := testGeom(1), testGeom(2), testGeom(3)

	if _, _, err := e.Dataset(m, g1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Dataset(m, g2); err != nil {
		t.Fatal(err)
	}
	// Touch g1 so g2 becomes the LRU entry.
	if _, hit, err := e.Dataset(m, g1); err != nil || !hit {
		t.Fatalf("touching g1: hit=%v err=%v", hit, err)
	}

	e.SetMaxDatasets(2)
	if got := e.CachedDatasets(); got != 2 {
		t.Fatalf("cache holds %d datasets under bound 2", got)
	}

	// A third dataset must push out g2 (least recently used), not g1.
	if _, _, err := e.Dataset(m, g3); err != nil {
		t.Fatal(err)
	}
	if got := e.CachedDatasets(); got != 2 {
		t.Errorf("cache holds %d datasets, want 2 after eviction", got)
	}
	if _, hit, err := e.Dataset(m, g1); err != nil || !hit {
		t.Errorf("g1 should have survived eviction: hit=%v err=%v", hit, err)
	}

	// g2 was evicted: requesting it again regenerates.
	before := e.Executions()
	if _, hit, err := e.Dataset(m, g2); err != nil || hit {
		t.Errorf("evicted g2 should regenerate: hit=%v err=%v", hit, err)
	}
	if got := e.Executions(); got != before+1 {
		t.Errorf("executions = %d, want %d after regeneration", got, before+1)
	}
}

func TestSetMaxDatasetsTrimsExisting(t *testing.T) {
	e := New(2)
	m := workload.DefaultMiniFE()
	for seed := uint64(1); seed <= 3; seed++ {
		if _, _, err := e.Dataset(m, testGeom(seed)); err != nil {
			t.Fatal(err)
		}
	}
	e.SetMaxDatasets(1)
	if got := e.CachedDatasets(); got != 1 {
		t.Errorf("cache holds %d datasets, want 1 after SetMaxDatasets(1)", got)
	}
}

// TestFailedGenerationIsNotCached: a generation that fails takes no
// cache slot, so it neither counts as a cached dataset nor evicts one,
// and a repeat request runs it again.
func TestFailedGenerationIsNotCached(t *testing.T) {
	e := New(2)
	m := workload.DefaultMiniFE()
	if _, _, err := e.ColumnarDLB(m, cluster.Config{}, dlb.Spec{}); err == nil {
		t.Fatal("zero geometry generated a dataset")
	}
	if got := e.CachedDatasets(); got != 0 {
		t.Fatalf("cache holds %d datasets after a failed generation, want 0", got)
	}

	e.SetMaxDatasets(1)
	if _, _, err := e.Dataset(m, testGeom(1)); err != nil {
		t.Fatal(err)
	}
	before := e.Executions()
	for i := 0; i < 2; i++ {
		if _, hit, err := e.ColumnarDLB(m, cluster.Config{}, dlb.Spec{}); err == nil || hit {
			t.Fatalf("repeat %d of the failed generation: hit=%v err=%v, want a fresh failure", i, hit, err)
		}
	}
	if got := e.Executions(); got != before+2 {
		t.Errorf("executions = %d, want %d: a failed generation must rerun", got, before+2)
	}
	if got := e.CachedDatasets(); got != 1 {
		t.Errorf("cache holds %d datasets, want 1", got)
	}
	if _, hit, err := e.Dataset(m, testGeom(1)); err != nil || !hit {
		t.Errorf("cached dataset lost to a failed generation: hit=%v err=%v", hit, err)
	}
}

func TestRunSpecSharesCacheAndKeys(t *testing.T) {
	e := New(2)
	sp := Spec{App: "minife", Geometry: testGeom(5)}

	r1, err := e.RunSpec(sp)
	if err != nil {
		t.Fatal(err)
	}
	if r1.CacheHit {
		t.Error("first RunSpec reported a cache hit")
	}
	r2, err := e.RunSpec(sp)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.CacheHit {
		t.Error("second RunSpec missed the dataset cache")
	}
	if e.Executions() != 1 {
		t.Errorf("executions = %d, want 1", e.Executions())
	}
	if r1.Assessment.Recommendation != r2.Assessment.Recommendation {
		t.Error("RunSpec results diverged across cache hit")
	}

	// Resolved keys: an explicit spelling of the defaults equals the
	// zero-valued spelling.
	zero, err := (Spec{App: "minife", Geometry: testGeom(5)}).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := (Spec{App: "minife", Geometry: testGeom(5), Alpha: 0.05}).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if zero.Key() != explicit.Key() {
		t.Error("explicit-default spec key differs from zero-valued spec key")
	}
	other, err := (Spec{App: "minife", Geometry: testGeom(5), Alpha: 0.01}).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if zero.Key() == other.Key() {
		t.Error("distinct alphas produced equal keys")
	}

	if _, err := e.RunSpec(Spec{}); err == nil {
		t.Error("empty spec did not error")
	}
}

func TestNestedViewsStayZeroOnColumnarPath(t *testing.T) {
	views := trace.NestedViews()
	e := New(2)
	m := workload.DefaultMiniFE()
	if _, _, err := e.ColumnarDLB(m, testGeom(9), dlb.Spec{}); err != nil {
		t.Fatal(err)
	}
	if got := (trace.NestedViews() - views); got != 0 {
		t.Errorf("nested views = %d after columnar-only access, want 0", got)
	}
	if _, _, err := e.Dataset(m, testGeom(9)); err != nil {
		t.Fatal(err)
	}
	if got := (trace.NestedViews() - views); got != 1 {
		t.Errorf("nested views = %d after Dataset access, want 1", got)
	}
}
