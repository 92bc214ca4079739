package serve

import (
	"sync/atomic"
	"time"

	"earlybird/internal/telemetry"
)

// endpointStats aggregates one endpoint's traffic counters: scalar
// totals for /v1/stats plus a latency histogram for /metrics.
type endpointStats struct {
	requests  atomic.Int64
	errors    atomic.Int64
	latencyNs atomic.Int64
	latency   *telemetry.Histogram
}

func newEndpointStats() *endpointStats {
	return &endpointStats{latency: telemetry.NewHistogram(telemetry.DefaultLatencyBuckets())}
}

// record folds one finished request into the counters.
func (s *endpointStats) record(start time.Time, isError bool) {
	s.requests.Add(1)
	if isError {
		s.errors.Add(1)
	}
	elapsed := time.Since(start)
	s.latencyNs.Add(int64(elapsed))
	s.latency.Observe(elapsed.Seconds())
}

// EndpointSnapshot is one endpoint's row of the /v1/stats reply.
type EndpointSnapshot struct {
	Requests      int64   `json:"requests"`
	Errors        int64   `json:"errors"`
	MeanLatencyMs float64 `json:"mean_latency_ms"`
}

func (s *endpointStats) snapshot() EndpointSnapshot {
	n := s.requests.Load()
	snap := EndpointSnapshot{Requests: n, Errors: s.errors.Load()}
	if n > 0 {
		snap.MeanLatencyMs = float64(s.latencyNs.Load()) / float64(n) / 1e6
	}
	return snap
}

// StatsResponse is the /v1/stats reply: per-endpoint traffic, the study
// path's work-sharing breakdown, and the engine's fill count.
type StatsResponse struct {
	UptimeSec float64                     `json:"uptime_sec"`
	Endpoints map[string]EndpointSnapshot `json:"endpoints"`

	// Study work-sharing: of the study-shaped requests answered
	// (study, feasibility, campaign entries), how many were served from
	// the result cache, attached to an in-flight execution, or executed.
	Study StudySourceStats `json:"study_sources"`

	// Strategies is the same breakdown for strategy-lab cells
	// (/v1/strategies), which coalesce on SpecKey plus grid hash in
	// their own result cache.
	Strategies StudySourceStats `json:"strategy_sources"`

	Engine EngineStats `json:"engine"`

	// Telemetry is the live progress layer: lifetime fill totals plus a
	// snapshot of every in-flight study (what /v1/progress streams).
	Telemetry TelemetryStats `json:"telemetry"`

	// Admission reports the adaptive-admission loop: the configured
	// watermark, the live efficiency signal it compares against, and how
	// many executions it has shed.
	Admission AdmissionStats `json:"admission"`

	// Fleet reports the federation layer's registry and traffic when the
	// server runs as a coordinator (Options.Fleet set); nil otherwise.
	Fleet *FleetSnapshot `json:"fleet,omitempty"`
}

// TelemetryStats is the /v1/stats telemetry section.
type TelemetryStats struct {
	StudiesStarted  int64   `json:"studies_started"`
	StudiesFinished int64   `json:"studies_finished"`
	ActiveStudies   int     `json:"active_studies"`
	Blocks          int64   `json:"blocks"`
	Samples         int64   `json:"samples"`
	BusySeconds     float64 `json:"busy_seconds"`
	LendEvents      int64   `json:"lend_events"`
	// Active is one live snapshot per in-flight study.
	Active []telemetry.Progress `json:"active,omitempty"`
}

// AdmissionStats is the /v1/stats admission section.
type AdmissionStats struct {
	// Watermark is the configured fill-efficiency watermark; 0 means
	// admission control is disabled.
	Watermark float64 `json:"watermark"`
	// Efficiency is the live aggregate fill efficiency; only meaningful
	// while SignalLive.
	Efficiency float64 `json:"live_fill_efficiency"`
	// SignalLive reports at least one study is in flight (without one
	// there is no signal and admission always admits).
	SignalLive bool `json:"signal_live"`
	// Sheds counts materialising executions refused with 503.
	Sheds int64 `json:"sheds"`
}

// FleetSnapshot is the /v1/stats fleet section: registry state plus the
// scatter/gather counters of federated sweep execution.
type FleetSnapshot struct {
	// Peers and Healthy count the registered and currently healthy
	// workers.
	Peers   int `json:"peers"`
	Healthy int `json:"healthy"`
	// CellsDispatched counts grid cells answered by the fleet;
	// LocalFallbacks counts cells the fleet declined (no healthy worker)
	// that the coordinator ran itself. Both are coordinator-side.
	CellsDispatched int64 `json:"cells_dispatched"`
	LocalFallbacks  int64 `json:"local_fallbacks"`
	// CellsMerged / CellsFailed count cells whose shard responses merged
	// cleanly vs cells that errored after exhausting every worker.
	CellsMerged int64 `json:"cells_merged"`
	CellsFailed int64 `json:"cells_failed"`
	// ShardsDispatched counts requests sent to workers — sweep shards
	// and whole strategy cells, re-dispatches included; Failovers counts
	// re-dispatches caused by a worker failure.
	ShardsDispatched int64 `json:"shards_dispatched"`
	Failovers        int64 `json:"failovers"`
	// ShardRejects counts shard records refused before merging: a bad
	// seal, another cell's or trial range's record, or states that do
	// not decode. Each one also demotes its worker and fails over.
	ShardRejects int64 `json:"shard_rejects"`
	// Sheds counts 503 + Retry-After refusals from worker adaptive
	// admission: the worker was marked busy until its Retry-After, never
	// demoted.
	Sheds int64 `json:"sheds"`
	// Speculations counts backup attempts issued for shards whose
	// in-flight duration crossed the speculation quantile;
	// SpeculationWins counts the backups that beat the original.
	Speculations    int64 `json:"speculations"`
	SpeculationWins int64 `json:"speculation_wins"`
	// StoreHits / StoreMisses count durable-store lookups (0/0 when no
	// store is configured): a hit serves the merged row from disk
	// without dispatching any shard.
	StoreHits   int64 `json:"store_hits"`
	StoreMisses int64 `json:"store_misses"`
	// Joins counts dynamic-membership registrations (first joins and
	// lease renewals); LeaseEvictions counts workers deregistered by
	// lease expiry.
	Joins          int64 `json:"joins"`
	LeaseEvictions int64 `json:"lease_evictions"`
	// Workers is the per-worker registry view.
	Workers []FleetWorkerSnapshot `json:"workers"`
}

// FleetWorkerSnapshot is one worker's row of the fleet section.
type FleetWorkerSnapshot struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	// Capacity is the live scheduling weight the last health probe read
	// from the worker (1 = full weight); rendezvous ranking scales by
	// it, so a degraded worker keeps only a sliver of new cells.
	Capacity float64 `json:"capacity"`
	// Shards counts shard requests this worker answered successfully;
	// Failures counts requests it failed (transport errors and 5xx).
	Shards   int64 `json:"shards"`
	Failures int64 `json:"failures"`
	// Sheds counts 503 + Retry-After refusals from this worker; while
	// Busy the scheduler skips it (for BusyForSec more seconds) without
	// demoting it.
	Sheds      int64   `json:"sheds"`
	Busy       bool    `json:"busy,omitempty"`
	BusyForSec float64 `json:"busy_for_sec,omitempty"`
	// LeaseSec is the remaining membership lease of a dynamically joined
	// worker (omitted for static peers, which never expire).
	LeaseSec float64 `json:"lease_sec,omitempty"`
}

// StudySourceStats counts study answers by source.
type StudySourceStats struct {
	ResultCacheHits int64 `json:"result_cache_hits"`
	Coalesced       int64 `json:"coalesced"`
	Executed        int64 `json:"executed"`
	// ResultCacheSize is the current LRU population.
	ResultCacheSize int `json:"result_cache_size"`
}

// EngineStats is the engine's side of the server. Executions counts
// the fills studies and strategy cells ran: one per fill group of a
// request whose result cache missed. Sweep cells and shards fold
// straight from their fill and count nowhere here.
type EngineStats struct {
	Executions int64 `json:"dataset_executions"`
	Workers    int   `json:"workers"`
}

// sourceCounters tallies study answers by source, shared by the study,
// feasibility and campaign handlers.
type sourceCounters struct {
	lruHits   atomic.Int64
	coalesced atomic.Int64
	executed  atomic.Int64
}

func (c *sourceCounters) count(src Source) {
	switch src {
	case SourceResultCache:
		c.lruHits.Add(1)
	case SourceCoalesced:
		c.coalesced.Add(1)
	case SourceExecuted:
		c.executed.Add(1)
	}
}
