package engine

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"earlybird/internal/cluster"
	"earlybird/internal/core"
	"earlybird/internal/rng"
	"earlybird/internal/workload"
)

// testGeom keeps unit runs fast while preserving the 48-thread sets the
// analysis is calibrated for.
func testGeom(seed uint64) cluster.Config {
	return cluster.Config{Trials: 1, Ranks: 2, Iterations: 12, Threads: 48, Seed: seed}
}

// countingModel wraps a workload model and counts fill calls, proving at
// the model layer (independently of Engine.Executions) how many times a
// dataset was actually generated.
type countingModel struct {
	workload.Model
	fills atomic.Int64
}

func (m *countingModel) FillProcessIteration(root *rng.Source, trial, rank, iter int, out []float64) {
	m.fills.Add(1)
	m.Model.FillProcessIteration(root, trial, rank, iter, out)
}

func TestDatasetCacheSingleExecution(t *testing.T) {
	e := New(4)
	m := &countingModel{Model: workload.DefaultMiniFE()}
	geom := testGeom(7)

	first, hit1, err := e.Dataset(m, geom)
	if err != nil {
		t.Fatal(err)
	}
	if hit1 {
		t.Error("first request reported a cache hit")
	}
	second, hit2, err := e.Dataset(m, geom)
	if err != nil {
		t.Fatal(err)
	}
	if !hit2 {
		t.Error("second request missed the cache")
	}
	if first != second {
		t.Error("cache returned distinct dataset instances")
	}
	if got := e.Executions(); got != 1 {
		t.Errorf("executions = %d, want 1", got)
	}
	fillsAfterTwo := m.fills.Load()

	// A distinct seed is a distinct content address.
	other, hit3, err := e.Dataset(m, testGeom(8))
	if err != nil {
		t.Fatal(err)
	}
	if hit3 {
		t.Error("different seed reported a cache hit")
	}
	if other.Fingerprint() == first.Fingerprint() {
		t.Error("different seeds produced identical datasets")
	}
	if m.fills.Load() <= fillsAfterTwo {
		t.Error("second seed did not reach the model")
	}
	if got := e.Executions(); got != 2 {
		t.Errorf("executions = %d, want 2", got)
	}
}

func TestDatasetCacheConcurrentSingleFlight(t *testing.T) {
	e := New(8)
	m := &countingModel{Model: workload.DefaultMiniMD()}
	geom := testGeom(3)

	var wg sync.WaitGroup
	prints := make([]uint64, 16)
	for i := range prints {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ds, _, err := e.Dataset(m, geom)
			if err != nil {
				t.Error(err)
				return
			}
			prints[i] = ds.Fingerprint()
		}(i)
	}
	wg.Wait()
	if got := e.Executions(); got != 1 {
		t.Errorf("executions = %d, want 1 under concurrent requests", got)
	}
	for i, p := range prints {
		if p != prints[0] {
			t.Fatalf("request %d saw a different dataset", i)
		}
	}
}

func TestCampaignDedupAndByteIdentity(t *testing.T) {
	e := New(4)
	spec := Spec{App: "minife", Geometry: testGeom(5)}
	// Three identical specs plus one sharing the dataset key with a
	// different analysis parameter: one generation total.
	specs := []Spec{spec, spec, spec, {App: "minife", Geometry: testGeom(5), Alpha: 0.01}}
	results, err := e.Run(Campaign{Specs: specs})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Executions(); got != 1 {
		t.Errorf("executions = %d, want 1 for deduplicated specs", got)
	}
	base := results[0].Study.Dataset().Fingerprint()
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("result %d: %v", i, r.Err)
		}
		if got := r.Study.Dataset().Fingerprint(); got != base {
			t.Errorf("result %d dataset fingerprint %x != %x", i, got, base)
		}
		if i > 0 && !r.CacheHit {
			t.Errorf("result %d should be cache-served", i)
		}
	}
	if results[3].Table1 == results[0].Table1 {
		t.Error("alpha=0.01 spec produced the same Table1 row as alpha=0.05")
	}

	// A fresh engine over the same specs regenerates byte-identical data:
	// the cache is content-addressed, not run-scoped.
	e2 := New(1)
	again, err := e2.Run(Campaign{Specs: specs[:1]})
	if err != nil {
		t.Fatal(err)
	}
	if got := again[0].Study.Dataset().Fingerprint(); got != base {
		t.Errorf("regenerated dataset fingerprint %x != %x", got, base)
	}
}

func TestCampaignThreeAppsTwoGeometries(t *testing.T) {
	e := New(0)
	apps := []string{"minife", "minimd", "miniqmc"}
	geoms := []cluster.Config{testGeom(1), {Trials: 1, Ranks: 2, Iterations: 8, Threads: 48, Seed: 2}}
	var specs []Spec
	for _, app := range apps {
		for _, g := range geoms {
			specs = append(specs, Spec{App: app, Geometry: g})
		}
	}
	// Append a duplicate of every spec: the campaign must serve the
	// second half entirely from cache.
	specs = append(specs, specs...)

	var streamed atomic.Int64
	results, err := e.Run(Campaign{
		Specs:   specs,
		Collect: func(Result) { streamed.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Executions(); got != int64(len(apps)*len(geoms)) {
		t.Errorf("executions = %d, want %d", got, len(apps)*len(geoms))
	}
	if got := streamed.Load(); got != int64(len(specs)) {
		t.Errorf("collector saw %d results, want %d", got, len(specs))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("result %d: %v", i, r.Err)
		}
		if r.Index != i {
			t.Errorf("result %d carries index %d", i, r.Index)
		}
		if r.Assessment.Recommendation == "" {
			t.Errorf("result %d has no recommendation", i)
		}
		dup := (i + len(specs)/2) % len(specs)
		if r.Metrics != results[dup].Metrics {
			t.Errorf("duplicate specs %d/%d disagree on metrics", i, dup)
		}
	}
	for _, r := range results[len(specs)/2:] {
		if !r.CacheHit {
			t.Errorf("duplicate spec %d was not cache-served", r.Index)
		}
	}
}

func TestCampaignDeterministicAcrossWorkerCounts(t *testing.T) {
	specs := []Spec{
		{App: "minife", Geometry: testGeom(11)},
		{App: "minimd", Geometry: testGeom(11)},
		{App: "miniqmc", Geometry: testGeom(11)},
		{App: "minife", Geometry: testGeom(12)},
	}
	serial, err := New(1).Run(Campaign{Specs: specs})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := New(8).Run(Campaign{Specs: specs})
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if serial[i].Metrics != wide[i].Metrics {
			t.Errorf("spec %d: metrics differ between worker counts", i)
		}
		if serial[i].Table1 != wide[i].Table1 {
			t.Errorf("spec %d: Table1 differs between worker counts", i)
		}
		if serial[i].Assessment.Recommendation != wide[i].Assessment.Recommendation {
			t.Errorf("spec %d: recommendation differs between worker counts", i)
		}
		a, b := serial[i].Study.Dataset().Fingerprint(), wide[i].Study.Dataset().Fingerprint()
		if a != b {
			t.Errorf("spec %d: dataset fingerprints differ (%x vs %x)", i, a, b)
		}
	}
}

func TestCampaignPreloadedDatasetAndErrors(t *testing.T) {
	e := New(2)
	ds := cluster.MustRun(workload.DefaultMiniQMC(), testGeom(9))
	results, err := e.Run(Campaign{Specs: []Spec{
		{Dataset: ds},
		{App: "no-such-app"},
		{App: "minife", Geometry: testGeom(9)},
	}})
	if err == nil {
		t.Fatal("campaign with an unknown app returned no error")
	}
	if results[0].Err != nil {
		t.Fatalf("preloaded dataset spec failed: %v", results[0].Err)
	}
	if results[0].Spec.App != "miniqmc" {
		t.Errorf("preloaded spec resolved app %q", results[0].Spec.App)
	}
	if results[0].Assessment.Recommendation != core.RecommendFineGrained {
		t.Errorf("miniqmc recommendation %q", results[0].Assessment.Recommendation)
	}
	if results[1].Err == nil {
		t.Error("unknown app produced no per-spec error")
	}
	if results[2].Err != nil || results[2].Study == nil {
		t.Errorf("valid spec was poisoned by its neighbour: %+v", results[2].Err)
	}
	// The preloaded dataset bypasses the cache: only the minife spec
	// triggered a generation.
	if got := e.Executions(); got != 1 {
		t.Errorf("executions = %d, want 1", got)
	}
}

// TestColumnarSharesCacheWithDataset: the columnar accessor and the
// dataset view must come from one generation, share content, and carry
// the fill-time fingerprint.
func TestColumnarSharesCacheWithDataset(t *testing.T) {
	e := New(2)
	model := &workload.MiniFE{}
	geom := cluster.Config{Trials: 1, Ranks: 2, Iterations: 8, Threads: 8, Seed: 1}

	col, hit, err := e.Columnar(model, geom)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first Columnar call reported a cache hit")
	}
	ds, hit, err := e.Dataset(model, geom)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("Dataset after Columnar should hit the cache")
	}
	if e.Executions() != 1 {
		t.Fatalf("%d executions, want 1", e.Executions())
	}
	if col.Fingerprint() != ds.Fingerprint() {
		t.Fatal("columnar and dataset fingerprints differ")
	}
	// The view shares the column's storage: same backing array.
	if &col.TimesColumn()[0] != &ds.Times[0][0][0][0] {
		t.Fatal("dataset view does not share columnar storage")
	}

	// Repeated Dataset calls return the same lazily built view.
	ds2, _, err := e.Dataset(model, geom)
	if err != nil {
		t.Fatal(err)
	}
	if ds2 != ds {
		t.Fatal("dataset view rebuilt on second call")
	}
}

// TestSpecKeyHash: equal resolved specs hash equally regardless of how
// they were spelled; distinct specs (different app, geometry, alpha or
// seed) hash differently — the property the fleet scheduler needs to
// route equal cells to the same worker.
func TestSpecKeyHash(t *testing.T) {
	resolve := func(sp Spec) SpecKey {
		r, err := sp.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		return r.Key()
	}

	// Two spellings of the same study: explicit paper defaults vs zeros.
	explicit := resolve(Spec{App: "minife", Geometry: cluster.DefaultConfig(), Alpha: 0.05})
	zeroed := resolve(Spec{App: "minife"})
	if explicit.Hash() != zeroed.Hash() {
		t.Error("equal resolved specs hash differently")
	}

	base := resolve(Spec{App: "minife"})
	variants := []Spec{
		{App: "minimd"},
		{App: "minife", Geometry: cluster.SmallConfig()},
		{App: "minife", Alpha: 0.01},
		{App: "minife", Geometry: cluster.Config{Trials: 10, Ranks: 8, Iterations: 200, Threads: 48, Seed: 2}},
		{App: "minife", LaggardThresholdSec: 2e-3},
	}
	seen := map[uint64]string{base.Hash(): "base"}
	for _, v := range variants {
		h := resolve(v).Hash()
		if prev, dup := seen[h]; dup {
			t.Errorf("hash collision between %q and %+v", prev, v)
		}
		seen[h] = v.App
	}
}

// TestResolveRejectsAnalysisOutOfRange: Resolve refuses a negative
// partition size, an alpha outside [0, 1) and a negative laggard
// threshold, NaN included, and still defaults their zeros.
func TestResolveRejectsAnalysisOutOfRange(t *testing.T) {
	nan := math.NaN()
	for name, sp := range map[string]Spec{
		"bytes -5":    {App: "minife", BytesPerPartition: -5},
		"alpha 1.5":   {App: "minife", Alpha: 1.5},
		"alpha 1":     {App: "minife", Alpha: 1},
		"alpha -0.1":  {App: "minife", Alpha: -0.1},
		"alpha NaN":   {App: "minife", Alpha: nan},
		"laggard -1":  {App: "minife", LaggardThresholdSec: -1e-3},
		"laggard NaN": {App: "minife", LaggardThresholdSec: nan},
	} {
		if _, err := sp.Resolve(); err == nil {
			t.Errorf("%s: resolved, want a refusal", name)
		}
	}
	if _, err := (Spec{App: "minife"}).Resolve(); err != nil {
		t.Fatalf("zero analysis parameters: %v", err)
	}
}
