// Package engine executes campaigns: many studies fanned out over a
// bounded worker pool, backed by a content-addressed dataset cache keyed
// by (model name, geometry, seed). Cache entries hold the compact
// columnar form (trace.Columnar) with the content fingerprint already
// computed during the fill; the nested Dataset view is built lazily over
// the same storage (NestedViews counts how often). Identical study specs
// are deduplicated to a single execution, and distinct specs over the
// same dataset share one generation. Results are deterministic
// regardless of scheduling order because dataset generation is a pure
// function of (model, seed) and the analysis pipeline is pure over the
// dataset.
//
// The cache is a share.Cache (internal/share): an LRU of finished
// datasets in front of a singleflight table of in-flight generations.
// It is unbounded by default; SetMaxDatasets bounds it so a long-lived
// serving process holds at most N datasets, regenerating evicted ones
// on demand. Only successful generations are cached, so a failed one
// never takes a slot or evicts a dataset. A campaign dedups identical
// specs through a share.Cache of its own and runs on share.FanOut.
// Single specs execute synchronously through RunSpec — the unit the
// serve layer's result cache collapses identical concurrent HTTP
// studies onto — with resolved specs exposing comparable deduplication
// keys via Resolve and Key.
//
// This is the batch substrate behind internal/experiments, cmd/repro,
// cmd/analyze, the earlybird.RunCampaign facade and the internal/serve
// study service — the outer level of parallelism over whole studies,
// above cluster.RunStream's inner level over one study's trials and ranks.
package engine
