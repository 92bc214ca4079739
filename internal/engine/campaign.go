package engine

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"earlybird/internal/analysis"
	"earlybird/internal/cluster"
	"earlybird/internal/core"
	"earlybird/internal/dlb"
	"earlybird/internal/fnv"
	"earlybird/internal/network"
	"earlybird/internal/partcomm"
	"earlybird/internal/share"
	"earlybird/internal/stats/normality"
	"earlybird/internal/trace"
	"earlybird/internal/workload"
)

// Spec describes one study of a campaign: which application (or custom
// model) to run, at which geometry and seed, and with which analysis
// parameters. Zero values fill with the paper's defaults.
type Spec struct {
	// App selects a built-in application model ("minife", "minimd",
	// "miniqmc") when Model and Dataset are nil.
	App string
	// Model overrides App with a custom workload model. Distinct
	// parameterisations must use distinct Name()s: the dataset cache is
	// keyed by (name, geometry, seed).
	Model workload.Model
	// Dataset short-circuits generation with a pre-collected dataset
	// (for example, one read back from threadtime JSON). It bypasses the
	// cache entirely.
	Dataset *trace.Dataset
	// Geometry is the study size; zero value means the paper's
	// 10 x 8 x 200 x 48 with seed 1.
	Geometry cluster.Config
	// Alpha is the normality significance level; zero means 5%.
	Alpha float64
	// LaggardThresholdSec is the laggard rule; zero means 1 ms.
	LaggardThresholdSec float64
	// BytesPerPartition sizes the feasibility evaluation's partitions;
	// zero means 1 MiB.
	BytesPerPartition int
	// Fabric is the interconnect model for the feasibility evaluation;
	// zero value means the paper's Omni-Path parameters.
	Fabric network.Fabric
	// BinTimeoutSec is the binned delivery strategy's flush timeout;
	// zero means 1 ms.
	BinTimeoutSec float64
	// DLB selects the runtime rebalancing policy the dataset is produced
	// under; the zero value is the static (pre-DLB) layout. Part of the
	// dataset cache key and the dedup key: differently balanced runs
	// never share either.
	DLB dlb.Spec
}

// Resolve returns the spec with every zero field replaced by its paper
// default and the model resolved from App. Keys of resolved specs compare
// post-default values, so two requests that spell the same study
// differently (one explicit, one zero-valued) resolve to equal keys. The
// serve layer resolves incoming wire specs once and coalesces on the key.
//
// Resolve is the one check of a study's inputs, on every path that runs
// one: the analysis ranges (CheckAnalysis), the bin timeout's floor
// (partcomm.CheckBinTimeout), the fabric, the DLB policy and, for a
// dataset-backed spec, that no block spans more than
// partcomm.MaxBinsPerBlock bins of the timeout (partcomm.CheckBinSpan).
// Its errors name the /v1/study wire fields.
func (sp Spec) Resolve() (Spec, error) { return sp.fill() }

// CheckAnalysis is the one range rule for a study's analysis
// parameters, on every path that takes them: a significance level
// outside [0, 1), a negative laggard threshold and a negative partition
// size are refused, NaN included. Zero passes: it means the paper
// default for each.
func CheckAnalysis(alpha, laggardThresholdSec float64, bytesPerPartition int) error {
	switch {
	case !(alpha >= 0 && alpha < 1):
		return fmt.Errorf("alpha must be in [0, 1), got %g", alpha)
	case !(laggardThresholdSec >= 0):
		return fmt.Errorf("laggard_threshold_sec must not be negative, got %g", laggardThresholdSec)
	case bytesPerPartition < 0:
		return fmt.Errorf("bytes_per_partition must not be negative, got %d", bytesPerPartition)
	}
	return nil
}

// fill resolves defaults and the model; it returns the resolved spec so
// dedup keys compare post-default values.
func (sp Spec) fill() (Spec, error) {
	if err := CheckAnalysis(sp.Alpha, sp.LaggardThresholdSec, sp.BytesPerPartition); err != nil {
		return sp, fmt.Errorf("engine: %w", err)
	}
	if sp.Model == nil && sp.Dataset == nil {
		if sp.App == "" {
			return sp, errors.New("engine: spec needs App, Model or Dataset")
		}
		m, err := workload.ByName(sp.App)
		if err != nil {
			return sp, fmt.Errorf("engine: %w", err)
		}
		sp.Model = m
	}
	if sp.Model != nil {
		sp.App = sp.Model.Name()
	} else if sp.Dataset != nil {
		sp.App = sp.Dataset.App
	}
	if sp.Dataset == nil && sp.Geometry == (cluster.Config{}) {
		sp.Geometry = cluster.DefaultConfig()
	}
	if sp.Alpha == 0 {
		sp.Alpha = normality.DefaultAlpha
	}
	if sp.LaggardThresholdSec == 0 {
		sp.LaggardThresholdSec = analysis.DefaultLaggardThresholdSec
	}
	if sp.BytesPerPartition == 0 {
		sp.BytesPerPartition = 1 << 20
	}
	if sp.Fabric == (network.Fabric{}) {
		sp.Fabric = network.OmniPath()
	}
	if sp.BinTimeoutSec == 0 {
		sp.BinTimeoutSec = 1e-3
	}
	if err := partcomm.CheckBinTimeout(sp.BinTimeoutSec); err != nil {
		return sp, fmt.Errorf("engine: bin_timeout_sec: %w", err)
	}
	if err := sp.Fabric.Validate(); err != nil {
		return sp, fmt.Errorf("engine: %w", err)
	}
	if sp.Dataset != nil {
		if err := partcomm.CheckBinSpan(sp.Dataset, sp.BinTimeoutSec); err != nil {
			return sp, fmt.Errorf("engine: %w", err)
		}
	}
	resolvedDLB, err := sp.DLB.Resolve()
	if err != nil {
		return sp, fmt.Errorf("engine: %w", err)
	}
	sp.DLB = resolvedDLB
	return sp, nil
}

// SpecKey identifies a fully resolved spec for deduplication: two specs
// with equal keys produce identical results, so the campaign executes
// them once and fans the result out, and the serve layer coalesces
// concurrent identical requests onto one execution. The key is an opaque
// comparable value; dataset-backed specs key on the dataset's identity.
type SpecKey struct {
	model               string
	dataset             *trace.Dataset
	geometry            cluster.Config
	alpha               float64
	laggardThresholdSec float64
	bytesPerPartition   int
	fabric              network.Fabric
	binTimeoutSec       float64
	dlb                 dlb.Spec
}

// Key returns the spec's deduplication key. Only meaningful on resolved
// specs (see Resolve): unresolved specs compare raw zero fields against
// filled defaults.
func (sp Spec) Key() SpecKey {
	return SpecKey{
		model:               sp.App,
		dataset:             sp.Dataset,
		geometry:            sp.Geometry,
		alpha:               sp.Alpha,
		laggardThresholdSec: sp.LaggardThresholdSec,
		bytesPerPartition:   sp.BytesPerPartition,
		fabric:              sp.Fabric,
		binTimeoutSec:       sp.BinTimeoutSec,
		dlb:                 sp.DLB,
	}
}

// Hash folds the key into a deterministic 64-bit FNV-1a value, stable
// across processes for specs without a preloaded dataset — the property
// the fleet scheduler relies on to route equal cells to the same worker
// (and so to that worker's result cache) from any coordinator.
// Dataset-backed keys mix in nothing for the dataset itself: such specs
// never travel over the wire, so their hash only needs to be consistent
// within one process's scheduling decisions.
func (k SpecKey) Hash() uint64 {
	h := fnv.Str(fnv.Offset64, k.model)
	h = fnv.U64(h, uint64(k.geometry.Trials))
	h = fnv.U64(h, uint64(k.geometry.Ranks))
	h = fnv.U64(h, uint64(k.geometry.Iterations))
	h = fnv.U64(h, uint64(k.geometry.Threads))
	h = fnv.U64(h, k.geometry.Seed)
	h = fnv.F64(h, k.alpha)
	h = fnv.F64(h, k.laggardThresholdSec)
	h = fnv.U64(h, uint64(k.bytesPerPartition))
	h = fnv.F64(h, k.fabric.LatencySec)
	h = fnv.F64(h, k.fabric.BandwidthBytesPerSec)
	h = fnv.F64(h, k.fabric.OverheadSec)
	h = fnv.F64(h, k.binTimeoutSec)
	h = k.dlb.Hash(h)
	return h
}

// StoreKey renders the hash as the fixed-width hex token the fleet's
// durable result store uses for file names: content addressing on the
// same routing key the scheduler uses, stable across processes and
// coordinators for wire-expressible specs.
func (k SpecKey) StoreKey() string {
	return fmt.Sprintf("%016x", k.Hash())
}

// Result is the analysed outcome of one campaign spec.
type Result struct {
	// Index is the spec's position in Campaign.Specs.
	Index int
	// Spec is the resolved spec (defaults filled in).
	Spec Spec
	// Study wraps the (possibly shared) dataset with the spec's analysis
	// parameters; nil when Err is set.
	Study *core.Study
	// Metrics, Table1 and Assessment are the Section 4.2 scalars, the
	// Table 1 normality row and the Section 5 feasibility verdict.
	Metrics    analysis.AppMetrics
	Table1     analysis.Table1
	Assessment core.Assessment
	// CacheHit reports whether the dataset was served from the engine's
	// cache rather than generated by this spec's execution.
	CacheHit bool
	// Err is the per-spec failure, if any.
	Err error
}

// Campaign is a batch of study specs plus execution policy.
type Campaign struct {
	// Specs are the studies to run. Identical specs (after defaulting)
	// execute once and share their result.
	Specs []Spec
	// Workers bounds how many studies run concurrently; <= 0 uses the
	// engine's default.
	Workers int
	// Collect, when non-nil, is called once per spec as its result
	// completes — cache-served duplicates included — in completion
	// order. Calls are serialised; Collect must not call back into the
	// campaign's engine.
	Collect func(Result)
}

// Run executes the campaign and returns one result per spec, in spec
// order. Per-spec failures are recorded in Result.Err and joined into
// the returned error; results for the other specs are still valid.
func (e *Engine) Run(c Campaign) ([]Result, error) {
	results := make([]Result, len(c.Specs))
	var mu sync.Mutex
	emit := func(r Result) {
		mu.Lock()
		defer mu.Unlock()
		results[r.Index] = r
		if c.Collect != nil {
			c.Collect(r)
		}
	}

	// Resolve every spec. Identical resolved specs share one execution
	// through the campaign's own cache; first occurrences queue ahead of
	// their duplicates, so no worker waits on a join while a distinct
	// spec is still queued. The first spec to read a generated dataset
	// fetches it and later specs over it wait until it has, so the
	// generation is reported by that spec whatever the scheduling.
	specs := make([]Spec, len(c.Specs))
	seen := map[SpecKey]bool{}
	fetched := map[Key]chan struct{}{}
	waitFor, signal := map[SpecKey]chan struct{}{}, map[SpecKey]chan struct{}{}
	var jobs, dups []int
	for i, raw := range c.Specs {
		sp, err := raw.fill()
		if err != nil {
			emit(Result{Index: i, Spec: raw, Err: err})
			continue
		}
		specs[i] = sp
		k := sp.Key()
		if seen[k] {
			dups = append(dups, i)
			continue
		}
		seen[k] = true
		jobs = append(jobs, i)
		if sp.Dataset == nil {
			dk := Key{Model: sp.App, Geometry: sp.Geometry, DLB: sp.DLB}
			if ch, ok := fetched[dk]; ok {
				waitFor[k] = ch
			} else {
				fetched[dk] = make(chan struct{})
				signal[k] = fetched[dk]
			}
		}
	}

	distinct := len(jobs)
	workers := c.Workers
	if workers <= 0 || workers > e.workers {
		workers = e.workers
	}
	workers = min(workers, distinct)
	jobs = append(jobs, dups...)
	done := share.New[SpecKey, Result](math.MaxInt)
	share.FanOut(len(jobs), workers, func(j int) {
		i := jobs[j]
		k := specs[i].Key()
		r, _ := done.Do(k, func() (Result, bool) {
			if ch := waitFor[k]; ch != nil {
				<-ch
			}
			return e.execute(specs[i], workers, signal[k]), true
		})
		r.Index = i
		// A spec's first occurrence reports its execution's dataset hit,
		// whichever goroutine ran it; duplicates in the same campaign are
		// cache-served by construction.
		r.CacheHit = r.CacheHit || j >= distinct
		emit(r)
	})

	errs := make([]error, 0, len(results))
	for i, r := range results {
		if r.Err == nil {
			continue
		}
		// A dataset-backed spec that failed to resolve has no App yet.
		name := r.Spec.App
		if name == "" && r.Spec.Dataset != nil {
			name = r.Spec.Dataset.App
		}
		errs = append(errs, fmt.Errorf("spec %d (%s): %w", i, name, r.Err))
	}
	return results, errors.Join(errs...)
}

// RunSpec resolves and executes one spec synchronously, sharing the
// engine's dataset cache (and its single-flighted generation) with every
// campaign and other RunSpec call on the engine; cmd/earlybird's one-shot
// study runs through it and reads Result.Study. The returned Result
// carries any per-spec failure in both Result.Err and the error return.
func (e *Engine) RunSpec(sp Spec) (Result, error) {
	filled, err := sp.fill()
	if err != nil {
		return Result{Spec: sp, Err: err}, err
	}
	r := e.execute(filled, 1, nil)
	return r, r.Err
}

// execute runs one resolved spec: dataset via the cache (or the spec's
// preloaded dataset), then the analysis pipeline. concurrency is the
// caller's fan-out, passed down as the generation-sizing hint; fetched,
// when non-nil, is closed once the dataset is in hand or has failed.
func (e *Engine) execute(sp Spec, concurrency int, fetched chan struct{}) Result {
	// Preloaded datasets bypass the cache and never count as hits.
	ds, hit, err := sp.Dataset, false, error(nil)
	if ds == nil {
		ds, hit, err = e.dataset(sp.Model, sp.Geometry, sp.DLB, concurrency)
	}
	if fetched != nil {
		close(fetched)
	}
	if err != nil {
		return Result{Spec: sp, Err: err}
	}
	r := sp.analyze(ds)
	r.CacheHit = hit && r.Err == nil
	return r
}

// Analyze runs the resolved spec's analysis over ds: the Section 4.2
// metrics, the Table 1 row and the Section 5 assessment, in one exact
// pass (core.Study.Analyze). The result's Study is nil, so nothing in
// it reads ds afterwards and the caller may recycle ds's storage.
func (sp Spec) Analyze(ds *trace.Dataset) Result {
	r := sp.analyze(ds)
	r.Study = nil
	return r
}

// analyze is Analyze, keeping the study that wraps ds.
func (sp Spec) analyze(ds *trace.Dataset) Result {
	r := Result{Spec: sp}
	r.Study, r.Err = core.FromDatasetWith(ds, core.Options{
		Policy: core.PolicySpec{
			DLB:                 sp.DLB,
			Alpha:               sp.Alpha,
			LaggardThresholdSec: sp.LaggardThresholdSec,
		},
	})
	if r.Err == nil {
		r.Metrics, r.Table1, r.Assessment = r.Study.Analyze(sp.BytesPerPartition, sp.Fabric, sp.BinTimeoutSec)
	}
	return r
}
