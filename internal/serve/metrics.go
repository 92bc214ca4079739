// GET /metrics: Prometheus exposition of the server's traffic counters,
// latency histograms, cache and engine state, live telemetry totals and
// the adaptive-admission loop — plus adaptive admission itself, which
// closes the telemetry loop: when the measured live fill efficiency
// drops below the configured watermark, new materialising executions
// are shed with 503 + Retry-After instead of admitted into the
// execution semaphore. Metric names are documented in DESIGN.md ("Live
// telemetry & adaptive admission").

package serve

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"time"

	"earlybird/internal/telemetry"
)

// minWorkerCapacity floors the capacity a degraded server reports (and
// the weight a fleet coordinator will assign it): a struggling worker
// keeps a sliver of traffic so recovery is observable, but the
// rendezvous scheduler drains around it.
const minWorkerCapacity = 0.05

// shedError reports that adaptive admission refused a materialising
// execution; RetryAfter is the client's back-off hint (the smallest ETA
// among in-flight studies).
type shedError struct {
	Watermark  float64
	Efficiency float64
	RetryAfter time.Duration
}

func (e *shedError) Error() string {
	return fmt.Sprintf(
		"admission shed: live fill efficiency %.3f is below the %.3f watermark; retry in %ds",
		e.Efficiency, e.Watermark, retryAfterSeconds(e.RetryAfter))
}

// retryAfterSeconds renders a Retry-After duration, rounded up, >= 1.
func retryAfterSeconds(d time.Duration) int {
	s := int(math.Ceil(d.Seconds()))
	if s < 1 {
		s = 1
	}
	return s
}

// admit decides whether a new materialising execution may start. With
// no watermark configured, or no study in flight (no live signal), it
// always admits; otherwise it sheds while the aggregate live fill
// efficiency is below the watermark.
func (s *Server) admit() error {
	wm := s.opts.AdmissionWatermark
	if wm <= 0 {
		return nil
	}
	eff, live := s.tel.Efficiency()
	if !live || eff >= wm {
		return nil
	}
	s.admissionSheds.Add(1)
	retry := time.Second
	if eta, ok := s.tel.MinETA(); ok {
		retry = eta
	}
	if retry > time.Minute {
		retry = time.Minute
	}
	return &shedError{Watermark: wm, Efficiency: eff, RetryAfter: retry}
}

// writeStudyError renders a study-path failure: admission sheds become
// 503 + Retry-After, everything else stays 422.
func writeStudyError(w http.ResponseWriter, err error) {
	var shed *shedError
	if errors.As(err, &shed) {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(shed.RetryAfter)))
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	writeError(w, http.StatusUnprocessableEntity, err)
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := s.promWriter(w)
	_ = p.Err()
}

// promWriter renders every metric family to w and returns the writer
// (whose first error, if any, the caller may inspect).
func (s *Server) promWriter(w http.ResponseWriter) *telemetry.PromWriter {
	p := telemetry.NewPromWriter(w)

	p.Gauge("earlybird_uptime_seconds", "Seconds since the server started.", time.Since(s.start).Seconds())

	paths := make([]string, 0, len(s.endpoints))
	for path := range s.endpoints {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	p.CounterVec("earlybird_http_requests_total", "Requests served, by endpoint.")
	for _, path := range paths {
		p.Sample("earlybird_http_requests_total", float64(s.endpoints[path].requests.Load()), "path", path)
	}
	p.CounterVec("earlybird_http_request_errors_total", "Requests answered with status >= 400, by endpoint.")
	for _, path := range paths {
		p.Sample("earlybird_http_request_errors_total", float64(s.endpoints[path].errors.Load()), "path", path)
	}
	p.HistogramVec("earlybird_http_request_duration_seconds", "Request latency, by endpoint.")
	for _, path := range paths {
		p.HistogramSample("earlybird_http_request_duration_seconds", s.endpoints[path].latency.Snapshot(), "path", path)
	}

	p.CounterVec("earlybird_study_results_total", "Study-shaped answers by source (result_cache, coalesced, executed).")
	p.Sample("earlybird_study_results_total", float64(s.sources.lruHits.Load()), "source", "result_cache")
	p.Sample("earlybird_study_results_total", float64(s.sources.coalesced.Load()), "source", "coalesced")
	p.Sample("earlybird_study_results_total", float64(s.sources.executed.Load()), "source", "executed")
	p.CounterVec("earlybird_strategy_results_total", "Strategy-lab cell answers by source.")
	p.Sample("earlybird_strategy_results_total", float64(s.stratSources.lruHits.Load()), "source", "result_cache")
	p.Sample("earlybird_strategy_results_total", float64(s.stratSources.coalesced.Load()), "source", "coalesced")
	p.Sample("earlybird_strategy_results_total", float64(s.stratSources.executed.Load()), "source", "executed")
	p.GaugeVec("earlybird_result_cache_entries", "LRU result cache population, by cache.")
	p.Sample("earlybird_result_cache_entries", float64(s.co.Len()), "cache", "study")
	p.Sample("earlybird_result_cache_entries", float64(s.strat.Len()), "cache", "strategies")

	p.Counter("earlybird_engine_dataset_executions_total", "Dataset fills run for studies and strategy cells (sweep cells and shards fold from fills of their own).", float64(s.eng.Executions()))
	p.Gauge("earlybird_engine_workers", "The server's execution worker budget.", float64(s.eng.Workers()))

	tot := s.tel.Totals()
	p.Gauge("earlybird_studies_active", "Studies currently filling.", float64(tot.ActiveStudies))
	p.Counter("earlybird_studies_started_total", "Tracked study generations started.", float64(tot.StudiesStarted))
	p.Counter("earlybird_studies_finished_total", "Tracked study generations finished.", float64(tot.StudiesFinished))
	p.Counter("earlybird_fill_blocks_total", "Process-iteration blocks produced.", float64(tot.Blocks))
	p.Counter("earlybird_fill_samples_total", "Samples produced.", float64(tot.Samples))
	p.Counter("earlybird_fill_busy_seconds_total", "Useful fill-worker time accumulated.", tot.BusySeconds)
	p.Counter("earlybird_dlb_lend_events_total", "DLB iteration boundaries observed on a lent allocation.", float64(tot.LendEvents))

	eff, live := s.tel.Efficiency()
	p.Gauge("earlybird_fill_efficiency", "Live aggregate parallel efficiency across in-flight studies (0 when idle).", eff)
	p.Gauge("earlybird_fill_efficiency_live", "1 while at least one study provides a live efficiency signal.", b2f(live))
	p.Gauge("earlybird_admission_watermark", "Configured fill-efficiency admission watermark (0 = admission disabled).", s.opts.AdmissionWatermark)
	p.Counter("earlybird_admission_sheds_total", "Materialising executions shed by adaptive admission.", float64(s.admissionSheds.Load()))

	if s.opts.Fleet != nil {
		snap := s.opts.Fleet.Snapshot()
		p.Gauge("earlybird_fleet_peers", "Registered fleet workers.", float64(snap.Peers))
		p.Gauge("earlybird_fleet_healthy", "Fleet workers currently healthy.", float64(snap.Healthy))
		p.Counter("earlybird_fleet_cells_dispatched_total", "Grid cells answered by the fleet.", float64(s.fleetCells.Load()))
		p.Counter("earlybird_fleet_local_fallbacks_total", "Cells the fleet declined that ran locally.", float64(s.fleetFallbacks.Load()))
		p.Counter("earlybird_fleet_cells_merged_total", "Cells whose shard responses merged cleanly.", float64(snap.CellsMerged))
		p.Counter("earlybird_fleet_cells_failed_total", "Cells that errored after exhausting every worker.", float64(snap.CellsFailed))
		p.Counter("earlybird_fleet_shards_dispatched_total", "Shard and strategy-cell requests sent to workers.", float64(snap.ShardsDispatched))
		p.Counter("earlybird_fleet_failovers_total", "Re-dispatches caused by worker failures.", float64(snap.Failovers))
		p.Counter("earlybird_fleet_shard_rejects_total", "Shard records refused before merging (bad seal, wrong cell or trial range, undecodable state).", float64(snap.ShardRejects))
		p.Counter("earlybird_fleet_sheds_total", "503 + Retry-After refusals from worker adaptive admission (worker marked busy, not demoted).", float64(snap.Sheds))
		p.Counter("earlybird_fleet_speculations_total", "Speculative backup attempts issued for slow in-flight shards.", float64(snap.Speculations))
		p.Counter("earlybird_fleet_speculation_wins_total", "Speculative attempts that beat the original.", float64(snap.SpeculationWins))
		p.Counter("earlybird_fleet_store_hits_total", "Sweep cells served from the durable result store.", float64(snap.StoreHits))
		p.Counter("earlybird_fleet_store_misses_total", "Durable-store lookups that missed.", float64(snap.StoreMisses))
		p.Counter("earlybird_fleet_joins_total", "Dynamic-membership joins and lease renewals.", float64(snap.Joins))
		p.Counter("earlybird_fleet_lease_evictions_total", "Workers deregistered by membership lease expiry.", float64(snap.LeaseEvictions))
		p.GaugeVec("earlybird_fleet_worker_healthy", "1 while the worker is considered healthy, by worker URL.")
		for _, ws := range snap.Workers {
			p.Sample("earlybird_fleet_worker_healthy", b2f(ws.Healthy), "url", ws.URL)
		}
		p.GaugeVec("earlybird_fleet_worker_capacity", "Live capacity weight the scheduler assigns the worker (last probe).")
		for _, ws := range snap.Workers {
			p.Sample("earlybird_fleet_worker_capacity", ws.Capacity, "url", ws.URL)
		}
		p.CounterVec("earlybird_fleet_worker_shards_total", "Shard requests the worker answered successfully.")
		for _, ws := range snap.Workers {
			p.Sample("earlybird_fleet_worker_shards_total", float64(ws.Shards), "url", ws.URL)
		}
		p.CounterVec("earlybird_fleet_worker_failures_total", "Shard requests the worker failed.")
		for _, ws := range snap.Workers {
			p.Sample("earlybird_fleet_worker_failures_total", float64(ws.Failures), "url", ws.URL)
		}
		p.GaugeVec("earlybird_fleet_worker_busy", "1 while the worker is inside a shed Retry-After window (skipped, not demoted).")
		for _, ws := range snap.Workers {
			p.Sample("earlybird_fleet_worker_busy", b2f(ws.Busy), "url", ws.URL)
		}
		p.CounterVec("earlybird_fleet_worker_sheds_total", "503 + Retry-After refusals, by worker URL.")
		for _, ws := range snap.Workers {
			p.Sample("earlybird_fleet_worker_sheds_total", float64(ws.Sheds), "url", ws.URL)
		}
	}
	return p
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
