package engine

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"earlybird/internal/cluster"
	"earlybird/internal/dlb"
	"earlybird/internal/share"
	"earlybird/internal/trace"
	"earlybird/internal/workload"
)

// Key is the content address of a generated dataset: the workload model's
// name plus the full geometry including the master seed, plus the
// canonical DLB policy under which the samples were produced — a
// rebalanced run yields different times than a static one, so the two
// must never share a cache entry. Two specs with equal keys receive the
// identical dataset, so custom models must use distinct names for
// distinct parameterisations. DLB must be in canonical (resolved) form;
// the zero Spec is the static policy, keeping pre-DLB keys meaningful.
type Key struct {
	Model    string
	Geometry cluster.Config
	DLB      dlb.Spec
}

// entry is one generated dataset: the compact columnar form — one flat
// sample column plus a small header, with the fingerprint already
// accumulated during the fill — and the nested Dataset view, built
// lazily over the column's storage only when a consumer asks for it.
// Only successful generations are cached; err carries a failed one to
// the requests that joined it.
type entry struct {
	col *trace.Columnar
	err error

	mu sync.Mutex
	ds *trace.Dataset
}

// Engine is a dataset cache plus the worker-pool configuration shared by
// the campaigns run on it. The zero value is not usable; call New. An
// Engine is safe for concurrent use and may be shared across campaigns
// so later campaigns reuse earlier datasets.
type Engine struct {
	workers  int
	datasets *share.Cache[Key, *entry]

	mu       sync.Mutex
	progress ProgressFactory

	executions  atomic.Int64
	inFlight    atomic.Int64
	nestedViews atomic.Int64
}

// ProgressFactory creates the live telemetry attachment for one dataset
// generation: the returned sink observes the fill (nil detaches it) and
// done, when non-nil, is called once the generation finishes — success
// or failure — so trackers can be retired. Cache hits and coalesced
// joiners never invoke the factory: one generation, one tracker.
type ProgressFactory func(model string, geom cluster.Config, policy dlb.Spec) (sink cluster.ProgressSink, done func())

// SetProgress installs the generation telemetry factory (the serve
// layer's registry wiring); nil detaches it. Generations already in
// flight keep the factory they started with.
func (e *Engine) SetProgress(f ProgressFactory) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.progress = f
}

// progressFactory reads the installed factory.
func (e *Engine) progressFactory() ProgressFactory {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.progress
}

// New returns an engine whose campaigns run at most workers studies
// concurrently; workers <= 0 means one per usable CPU (GOMAXPROCS).
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{workers: workers, datasets: share.New[Key, *entry](math.MaxInt)}
}

// Workers returns the campaign concurrency bound.
func (e *Engine) Workers() int { return e.workers }

// Executions returns how many dataset generations the engine has actually
// run — cache hits do not count. Tests use this to verify deduplication.
func (e *Engine) Executions() int64 { return e.executions.Load() }

// CachedDatasets returns the number of distinct finished datasets held;
// generations still in flight do not count.
func (e *Engine) CachedDatasets() int { return e.datasets.Len() }

// EvictedDatasets returns how many datasets the cache bound has evicted
// over the engine's lifetime.
func (e *Engine) EvictedDatasets() int64 { return e.datasets.Evictions() }

// NestedViews returns how many dataset generations have had their nested
// [][][][] view built. Consumers that stay on the columnar cursor path
// (streaming analysis, NDJSON sweeps) never trigger the view, so this
// stays at zero for them — tests use it to prove a code path never
// materialised the tensor form.
func (e *Engine) NestedViews() int64 { return e.nestedViews.Load() }

// SetMaxDatasets bounds the dataset cache to at most n finished
// datasets, evicting the least recently used past the bound; n <= 0
// removes the bound (the default). A generation takes a slot only once
// it has finished, and only if it succeeded, so in-flight and failed
// generations never evict a cached dataset. Evicted datasets regenerate
// (and count as executions) on their next request.
func (e *Engine) SetMaxDatasets(n int) {
	if n <= 0 {
		n = math.MaxInt
	}
	e.datasets.SetCap(n)
}

// Dataset returns the dataset for (model, geometry), generating it on
// first request and serving every later — or concurrent — request from
// the cache. The second return reports whether this call was served from
// cache without triggering the generation. Callers must not mutate the
// returned dataset.
func (e *Engine) Dataset(model workload.Model, geom cluster.Config) (*trace.Dataset, bool, error) {
	return e.dataset(model, geom, dlb.Spec{}, 1)
}

// DatasetDLB is Dataset under a rebalancing policy; each distinct
// resolved policy is its own cache entry.
func (e *Engine) DatasetDLB(model workload.Model, geom cluster.Config, policy dlb.Spec) (*trace.Dataset, bool, error) {
	return e.dataset(model, geom, policy, 1)
}

// Columnar is Dataset in the cache's native form: the flat columnar store
// streaming consumers read through cursors, without ever building the
// nested view. Callers must not mutate the returned store.
func (e *Engine) Columnar(model workload.Model, geom cluster.Config) (*trace.Columnar, bool, error) {
	return e.ColumnarDLB(model, geom, dlb.Spec{})
}

// ColumnarDLB is Columnar under a rebalancing policy.
func (e *Engine) ColumnarDLB(model workload.Model, geom cluster.Config, policy dlb.Spec) (*trace.Columnar, bool, error) {
	en, hit, err := e.entry(model, geom, policy, 1)
	if err != nil {
		return nil, hit, err
	}
	return en.col, hit, nil
}

// PrefetchDLB generates the datasets of several models at one geometry
// under policy concurrently — dataset generation only, no analysis —
// dividing the machine fairly between them. Already-cached datasets
// cost nothing.
func (e *Engine) PrefetchDLB(models []workload.Model, geom cluster.Config, policy dlb.Spec) error {
	concurrent := min(e.workers, len(models))
	errs := make([]error, len(models))
	share.FanOut(len(models), concurrent, func(i int) {
		_, _, errs[i] = e.dataset(models[i], geom, policy, concurrent)
	})
	return errors.Join(errs...)
}

// dataset is Dataset with an expected-concurrency hint from callers that
// know their fan-out up front (campaigns, PrefetchDLB), so every generation
// in a batch gets its fair share of CPUs from the start instead of early
// starters over-allocating.
func (e *Engine) dataset(model workload.Model, geom cluster.Config, policy dlb.Spec, hint int) (*trace.Dataset, bool, error) {
	en, hit, err := e.entry(model, geom, policy, hint)
	if err != nil {
		return nil, hit, err
	}
	en.mu.Lock()
	defer en.mu.Unlock()
	if en.ds == nil {
		en.ds = en.col.Dataset()
		e.nestedViews.Add(1)
	}
	return en.ds, hit, nil
}

// entry resolves (model, geometry, policy) to its cached entry,
// generating the columnar store on first request; concurrent requests
// for the same key join one generation. The policy is canonicalised
// before keying so spelled-out defaults and bare policy names share an
// entry.
func (e *Engine) entry(model workload.Model, geom cluster.Config, policy dlb.Spec, hint int) (*entry, bool, error) {
	policy, err := policy.Resolve()
	if err != nil {
		return nil, false, err
	}
	key := Key{Model: model.Name(), Geometry: geom, DLB: policy}
	en, src := e.datasets.Do(key, func() (*entry, bool) {
		e.executions.Add(1)
		concurrent := max(int(e.inFlight.Add(1)), hint)
		defer e.inFlight.Add(-1)
		var sink cluster.ProgressSink
		if f := e.progressFactory(); f != nil {
			var done func()
			sink, done = f(model.Name(), geom, key.DLB)
			if done != nil {
				defer done()
			}
		}
		col, err := cluster.RunColumnar(model, geom, key.DLB, e.innerWorkers(concurrent), sink)
		return &entry{col: col, err: err}, err == nil
	})
	return en, src != share.Executed, en.err
}

// innerWorkers divides the CPUs between concurrent generations so a lone
// Dataset call still uses the whole machine while a fan-out of N studies
// does not run N x GOMAXPROCS fill goroutines.
func (e *Engine) innerWorkers(concurrent int) int {
	if concurrent < 1 {
		concurrent = 1
	}
	inner := runtime.GOMAXPROCS(0) / concurrent
	if inner < 1 {
		inner = 1
	}
	return inner
}
