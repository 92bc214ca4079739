// Package serve is the study service: an HTTP front end over the
// campaign engine that turns the reproduction into a trafficked system.
// It exposes JSON endpoints for single studies (/v1/study), batched
// campaigns (/v1/campaign), feasibility assessments (/v1/feasibility),
// scenario sweeps streamed as NDJSON (/v1/sweep) and the strategy lab's
// delivery-strategy optimizer (/v1/strategies, JSON or NDJSON), plus
// per-endpoint latency and hit-rate counters at /v1/stats and a
// /v1/healthz probe.
//
// One study executor answers /v1/study, /v1/feasibility, every
// /v1/campaign entry and every /v1/scenario cell. Three layers of
// work-sharing sit between a study and a workload fill, so under heavy
// identical traffic the service does the expensive part exactly once:
//
//   - a bounded LRU result cache keyed by the resolved spec — a repeat
//     of a recently answered study is a map lookup. It holds the reply
//     value, never the dataset, and, once the entry has been hit, the
//     encoded /v1/study hit reply, which later hits write as stored
//     bytes;
//   - singleflight request coalescing — N concurrent identical studies
//     attach to one in-flight execution and share its result;
//   - the engine's content-addressed dataset cache (itself
//     single-flighted and LRU-bounded via engine.SetMaxDatasets) — two
//     different analyses of the same (model, geometry, seed) share one
//     generated dataset.
//
// Each of the three is a share.Cache (internal/share), the tree's one
// LRU + singleflight, and every grid and batch runs on share.FanOut. A
// value enters a cache only when its execution reports it cacheable: a
// failed study or generation takes no slot and evicts nothing.
//
// The sweep endpoint fans a grid of (app x geometry x alpha x laggard
// threshold) cells onto the engine and writes one NDJSON row per cell as
// it completes. A local cell is the shard [0, Trials) and runs on the
// shard executor (runShard: one analysis.Kernel feeding the metrics and
// Table 1 accumulators over a columnar cursor), so the nested tensor
// view is never built. Geometries larger than one constant bound
// (maxCachedSweepSamples, four paper geometries) bypass the dataset
// cache and run through core.FoldTrials, the streamed fold StreamStudy
// runs, whose extra state (its extra workers' histograms, its open
// trial tables) stays within the fold's one 40 MiB budget; a rebalanced
// trial whose block table is over that is refused. The bound sets
// memory, never the answer.
//
// The strategies endpoint sweeps a delivery-strategy grid — fixed and
// adaptive policies from internal/partcomm — over each (app, geometry)
// cell's columnar cursor and reports the frontier. Cells coalesce in
// their own result cache keyed by the resolved spec key plus a
// strategy-grid hash, so identical concurrent requests evaluate once
// while different grids still share the engine's dataset cache.
//
// The shard endpoint (/v1/shard) is the worker half of fleet
// execution: it folds one cell's trial range into the metrics and
// Table 1 accumulators and answers with one sealed binary record
// (record.go) — the cell identity, trial range, block count, flags and
// both states behind a CRC-32C trailer — not JSON. ShardRequest.Accept
// is the coordinator half: it checks a record against the request
// before anything merges it. The fleet's durable result store persists
// the same record for a cell's whole trial range and loads it through
// the same Accept.
//
// SweepGrid, StrategyGrid and ScenarioGrid expand a grid request into a
// Grid, which the handlers and any in-process coordinator
// (cmd/earlybird -fleet and -scenario, earlybird.FleetSweep) run alike;
// /v1/campaign runs one too. With Options.Fleet set, each sweep cell,
// strategy cell and bare-app study is placed on the fleet first and
// runs locally when no worker takes it.
//
// Server shuts down gracefully: Shutdown stops accepting connections and
// drains in-flight requests. cmd/earlybirdd is the production binary;
// earlybird.Serve is the embeddable facade.
package serve
