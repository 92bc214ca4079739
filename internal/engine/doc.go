// Package engine executes campaigns: many studies fanned out over a
// bounded worker pool, backed by a dataset cache keyed by (model name,
// geometry with its seed, DLB policy). Generation is a pure function of
// the key, so the key alone addresses an entry and nothing hashes the
// samples. Cache entries hold the compact columnar form
// (trace.Columnar); the nested Dataset view is built lazily over the
// same storage (trace.NestedViews counts how often). Identical study specs
// are deduplicated to a single execution, and distinct specs over the
// same dataset share one generation. Results are deterministic
// regardless of scheduling order because dataset generation is a pure
// function of (model, seed) and the analysis pipeline is pure over the
// dataset.
//
// The cache is a share.Cache (internal/share): an LRU of finished
// datasets in front of a singleflight table of in-flight generations.
// It is unbounded by default; SetMaxDatasets bounds it. Only successful
// generations are cached, so a failed one never takes a slot or evicts
// a dataset. A campaign dedups identical specs through a share.Cache of
// its own and runs on share.FanOut. Single specs execute synchronously
// through RunSpec, with resolved specs exposing comparable
// deduplication keys via Resolve and Key.
//
// The cache serves in-process campaigns: internal/experiments,
// cmd/repro, cmd/analyze, cmd/earlybird and the earlybird.RunCampaign
// facade — the outer level of parallelism over whole studies, above
// cluster.RunStream's inner level over one study's trials and ranks.
// The internal/serve study service keeps no dataset between requests:
// it fills through Fill, which counts an execution and reports progress
// like a cached generation but caches nothing and writes into a pooled
// column the caller releases, and it analyses with Spec.Analyze, whose
// result holds no reference to the samples.
package engine
