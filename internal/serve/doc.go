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
// /v1/campaign entry and every /v1/scenario cell. Two layers of
// work-sharing sit between a study and a workload fill, so under heavy
// identical traffic the service does the expensive part exactly once:
//
//   - a bounded LRU result cache keyed by the resolved spec — a repeat
//     of a recently answered study is a map lookup. It holds the reply
//     value, never the dataset, and, once the entry has been hit, the
//     encoded /v1/study hit reply, which later hits write as stored
//     bytes;
//   - singleflight request coalescing — N concurrent identical studies
//     attach to one in-flight execution and share its result.
//
// Both are a share.Cache (internal/share), the tree's one LRU +
// singleflight, and every grid and batch runs on share.FanOut. A value
// enters a cache only when its execution reports it cacheable: a
// failed study takes no slot and evicts nothing.
//
// No dataset outlives the request that filled it. A study fills through
// engine.Fill, which keeps nothing in the engine's dataset cache, into a
// pooled column, and the column goes back to the pool once the last
// analysis that reads it is done: a study answer is a few hundred bytes
// of scalars, and nothing reads the samples again. Within one request
// the studies over one dataset — a campaign's or a scenario's entries
// that differ only in alpha, laggard threshold, bin timeout, partition
// size or fabric — are one fill group (studyGrid): it fills at most
// once, on the first member the result cache misses, while the members
// answer concurrently, each still coalescing under its own key. A
// member that travels whole to a fleet dispatches on its own and reads
// the group's fill only when the fleet declines it. A caller's own
// dataset (dataset-backed specs) is read in place and never pooled.
//
// The sweep endpoint fans a grid of (app x geometry x alpha x laggard
// threshold) cells onto the engine and writes one NDJSON row per cell as
// it completes. A local cell is the shard [0, Trials) and runs on the
// shard executor (runShard: the streamed fold StreamStudy runs, one
// analysis.Kernel per fill worker feeding the metrics and Table 1
// accumulators straight from the fill), so no dataset is cached and the
// nested tensor view is never built. The cells that differ only in
// alpha and laggard threshold form one fill group (fillGroups): one
// fold (core.FoldReadings) reads their fill at every cell's
// parameters, and a fleet sends the group as one /v1/shard request per
// trial range, answered by a record set. At or under one constant
// bound (maxBoundedShardSamples, four paper geometries) a group fills
// on the server's share of its execution slots (fillWorkers), on one
// worker when more do not fit the fold's state budget; above it on up
// to GOMAXPROCS workers whose extra state (their histograms, the open
// trial tables) stays within the fold's one 40 MiB budget; a
// rebalanced trial whose block table is over that is refused. The
// bound and the grouping set the work, never the answer. Iteration histogram
// counts, the worker's record buffer and the coordinator's body buffer
// are pooled, so an exchange leaves almost no garbage.
//
// The strategies endpoint sweeps a delivery-strategy grid — fixed and
// adaptive policies from internal/partcomm — over each (app, geometry)
// cell's columnar cursor and reports the frontier. Cells coalesce in
// their own result cache keyed by the resolved spec key plus a
// strategy-grid hash, so identical concurrent requests evaluate once;
// each executed cell fills its own pooled column and releases it after
// the sweep.
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
