package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"earlybird/internal/cluster"
	"earlybird/internal/dlb"
	"earlybird/internal/engine"
	"earlybird/internal/share"
	"earlybird/internal/telemetry"
)

// Defaults for Options' zero values.
const (
	// DefaultMaxResults is the LRU result cache's default capacity.
	DefaultMaxResults = 256
	// DefaultMaxDatasets is the engine dataset cache's default bound.
	DefaultMaxDatasets = 64
	// DefaultMaxCachedSweepSamples is the geometry size (total samples)
	// above which sweep cells and shards bypass the dataset cache and
	// fill at most that many samples at once: four paper geometries
	// (~24 MiB).
	DefaultMaxCachedSweepSamples = 4 * 768000
	// DefaultMaxStudySamples is the largest geometry a materialising
	// study request (/v1/study, /v1/feasibility, /v1/campaign) accepts:
	// ten paper geometries (~60 MiB columnar). Larger analyses belong on
	// /v1/sweep, which holds at most MaxCachedSweepSamples samples at once
	// and accumulator state bounded by maxTrialIterations.
	DefaultMaxStudySamples = 10 * 768000
	// maxSweepCells bounds one sweep request's grid.
	maxSweepCells = 4096
	// maxTrialIterations bounds a sweep cell's or shard's trials x
	// iterations, the product its accumulator state grows with (~1.2 KB
	// per trial-iteration plus ~2.3 KB per iteration): about 230 MB at
	// the bound. HugeConfig (50,000) is under it.
	maxTrialIterations = 1 << 16
	// maxCampaignSpecs bounds one campaign request's batch.
	maxCampaignSpecs = 4096
	// maxRequestBytes bounds a request body; the largest legitimate
	// bodies (a maxCampaignSpecs campaign with explicit geometries and
	// fabrics) stay well under it.
	maxRequestBytes = 8 << 20
)

// Options configures a Server. The zero value serves with one worker per
// CPU, a 256-entry result cache and a 64-dataset engine cache.
type Options struct {
	// Workers bounds concurrently executing studies; <= 0 means one per
	// usable CPU.
	Workers int
	// MaxResults bounds the LRU result cache; 0 means
	// DefaultMaxResults, negative disables result caching.
	MaxResults int
	// MaxDatasets bounds the engine's dataset cache (LRU eviction); 0
	// means DefaultMaxDatasets, negative leaves the cache unbounded.
	MaxDatasets int
	// MaxCachedSweepSamples is the largest geometry (by total samples) a
	// sweep cell or shard generates through the dataset cache; larger
	// ones run uncached, holding at most this many samples at once, to
	// the same bits (a rebalanced trial larger than it is refused). 0
	// means DefaultMaxCachedSweepSamples.
	MaxCachedSweepSamples int
	// MaxStudySamples is the largest geometry (by total samples) the
	// materialising study endpoints accept; larger requests are rejected
	// with a pointer to /v1/sweep. 0 means DefaultMaxStudySamples.
	MaxStudySamples int
	// DefaultDLB is the rebalancing policy applied to study, sweep and
	// strategies requests that leave their policy unset (the earlybirdd
	// -dlb flag). Requests that set one — including an explicit "static"
	// — keep it. Shard requests never default: a coordinator has already
	// resolved its cell's policy and the shard must execute it literally.
	DefaultDLB dlb.Spec
	// Fleet, when non-nil, turns this server into a federation
	// coordinator: /v1/sweep cells shard across the fleet's workers, and
	// strategy cells and bare-app studies (/v1/study, /v1/feasibility,
	// /v1/campaign entries, /v1/scenario cells) dispatch whole when the
	// fleet is also a WholeDispatcher (internal/fleet implements both).
	// A cell runs locally only when no healthy peer can take it.
	// /v1/stats gains a fleet section.
	Fleet FleetDispatcher
	// AdmissionWatermark enables adaptive admission: while the live
	// aggregate fill efficiency measured across in-flight studies is
	// below it, new materialising executions (/v1/study,
	// /v1/feasibility, campaign entries) are shed with
	// 503 + Retry-After instead of admitted into the execution
	// semaphore. Cache hits and coalesced joins are never shed, and
	// /v1/sweep — the bounded-memory path shed clients are pointed at —
	// is exempt. 0 (or negative) disables admission control.
	AdmissionWatermark float64
}

// FleetDispatcher federates sweep cells across remote workers. The serve
// package defines the interface (internal/fleet provides the
// implementation) so coordinator wiring never creates an import cycle.
type FleetDispatcher interface {
	// DispatchCell executes one cell on the fleet, returning the merged
	// row. ok == false means the fleet could not place the cell (no
	// healthy workers) and the caller should run it locally.
	DispatchCell(ctx context.Context, cell SweepCell) (row SweepRow, ok bool)
	// Snapshot reports the fleet's registry and traffic counters.
	Snapshot() FleetSnapshot
}

// WholeDispatcher is the optional fleet upgrade for cells that travel
// whole: a bare-app study over /v1/study and a strategy cell over
// /v1/strategies. internal/fleet implements it; a fleet that
// does not is never offered those cells, and they run locally.
type WholeDispatcher interface {
	// DispatchWhole posts req to path on the worker ranked first for the
	// cell's key hash (failing over like shard dispatch) and decodes the
	// JSON answer into out. false means no worker took it, and the
	// caller runs the cell locally.
	DispatchWhole(ctx context.Context, hash uint64, path string, req, out any) bool
}

// Server is the study service: an http.Handler exposing the /v1 API over
// one campaign engine, plus a managed http.Server for ListenAndServe /
// Shutdown. Create with New; safe for concurrent use.
type Server struct {
	opts            Options
	eng             *engine.Engine
	co              *share.Cache[engine.SpecKey, studyAnswer]
	strat           *share.Cache[strategyCellKey, StrategyRow]
	mux             *http.ServeMux
	start           time.Time
	endpoints       map[string]*endpointStats
	sources         sourceCounters
	stratSources    sourceCounters
	maxSweepSamples int
	maxStudySamples int
	httpSrv         *http.Server
	// sem bounds the server's concurrently executing studies and sweep
	// cells across all requests — the engine's Workers bound applied at
	// the service level. Coalesced joiners and cache hits take no slot.
	sem chan struct{}
	// fleetCells counts grid cells answered by the fleet;
	// fleetFallbacks counts cells the fleet declined (no healthy
	// workers) that ran locally instead.
	fleetCells     atomic.Int64
	fleetFallbacks atomic.Int64
	// tel tracks in-flight study generations (the /v1/progress and
	// /metrics signal source); admissionSheds counts requests adaptive
	// admission refused.
	tel            *telemetry.Registry
	admissionSheds atomic.Int64
}

// New returns a ready-to-serve study service.
func New(opts Options) *Server {
	eng := engine.New(opts.Workers)
	maxDS := opts.MaxDatasets
	if maxDS == 0 {
		maxDS = DefaultMaxDatasets
	}
	eng.SetMaxDatasets(maxDS) // negative: unbounded, as the engine reads it
	maxResults := opts.MaxResults
	if maxResults == 0 {
		maxResults = DefaultMaxResults
	}
	maxSweep := opts.MaxCachedSweepSamples
	if maxSweep <= 0 {
		maxSweep = DefaultMaxCachedSweepSamples
	}
	maxStudy := opts.MaxStudySamples
	if maxStudy <= 0 {
		maxStudy = DefaultMaxStudySamples
	}
	s := &Server{
		opts:            opts,
		eng:             eng,
		co:              share.New[engine.SpecKey, studyAnswer](maxResults),
		strat:           share.New[strategyCellKey, StrategyRow](maxResults),
		mux:             http.NewServeMux(),
		start:           time.Now(),
		endpoints:       map[string]*endpointStats{},
		maxSweepSamples: maxSweep,
		maxStudySamples: maxStudy,
		sem:             make(chan struct{}, eng.Workers()),
		tel:             telemetry.NewRegistry(),
	}
	// Every dataset generation this server triggers reports live
	// progress into the registry.
	eng.SetProgress(s.generationProgress)
	s.httpSrv = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	s.route("POST", "/v1/study", s.handleStudy)
	s.route("POST", "/v1/campaign", s.handleCampaign)
	s.route("POST", "/v1/feasibility", s.handleFeasibility)
	s.route("POST", "/v1/sweep", s.handleSweep)
	s.route("POST", "/v1/shard", s.handleShard)
	s.route("POST", "/v1/strategies", s.handleStrategies)
	s.route("POST", "/v1/scenario", s.handleScenario)
	s.route("POST", "/v1/fleet/join", s.handleFleetJoin)
	s.route("POST", "/v1/fleet/leave", s.handleFleetLeave)
	s.route("GET", "/v1/stats", s.handleStats)
	s.route("GET", "/v1/healthz", s.handleHealthz)
	s.route("GET", "/v1/progress", s.handleProgress)
	s.route("GET", "/metrics", s.handleMetrics)
	return s
}

// ObservabilityHandler returns a handler exposing only the read-only
// observability surface (GET /metrics, GET /v1/progress, GET
// /v1/healthz) — what cmd/earlybirdd serves on -metrics-addr so scrapes
// stay off the study listener.
func (s *Server) ObservabilityHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/progress", s.handleProgress)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	return mux
}

// Engine returns the server's engine, for reading its configuration and
// counters and probing its dataset cache (earlybirdd and the tests do).
func (s *Server) Engine() *engine.Engine { return s.eng }

// Handler returns the service's routing handler, for embedding the API
// in an existing server or an httptest harness.
func (s *Server) Handler() http.Handler { return s.mux }

// route registers one instrumented endpoint.
func (s *Server) route(method, path string, h http.HandlerFunc) {
	st := newEndpointStats()
	s.endpoints[path] = st
	s.mux.HandleFunc(method+" "+path, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		st.record(start, sw.status >= 400)
	})
}

// statusWriter records the response status for the endpoint counters and
// forwards Flush for the NDJSON stream.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// writeJSON renders one JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// writeError renders the uniform error body.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// decodeBody strictly decodes one JSON request body, bounded at
// maxRequestBytes.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request body: %w", err)
	}
	return nil
}

// acquire takes one execution slot, bounding the server's concurrently
// executing studies/sweep cells across all requests.
func (s *Server) acquire() func() {
	s.sem <- struct{}{}
	return func() { <-s.sem }
}

// clampWorkers bounds one request's concurrency: the engine's worker
// count caps it, the job count floors it.
func (s *Server) clampWorkers(requested, jobs int) int {
	w := requested
	if w <= 0 || w > s.eng.Workers() {
		w = s.eng.Workers()
	}
	if w > jobs {
		w = jobs
	}
	return w
}

// Grid is one expanded grid request, ready to run: how many cells it
// has, how many run at once, and the executor of one cell. The
// /v1/sweep, /v1/strategies, /v1/scenario and /v1/campaign handlers
// each run one, and so does an in-process coordinator (cmd/earlybird
// -fleet and -scenario, earlybird.FleetSweep): every grid, federated or
// not, goes through the same cell executors and the same fleet
// fallback.
type Grid[R any] struct {
	n, workers int
	cell       func(ctx context.Context, i int) R
}

// newGrid bounds a grid's concurrency by the request's and the engine's.
func newGrid[R any](s *Server, n, workers int, cell func(context.Context, int) R) Grid[R] {
	return Grid[R]{n: n, workers: s.clampWorkers(workers, n), cell: cell}
}

// Run executes every cell and calls emit with the cell's grid position
// and row as it completes. emit is called concurrently from the worker
// goroutines, once per cell.
func (g Grid[R]) Run(ctx context.Context, emit func(i int, row R)) {
	share.FanOut(g.n, g.workers, func(i int) { emit(i, g.cell(ctx, i)) })
}

// Rows runs the grid and returns its rows in grid order.
func (g Grid[R]) Rows(ctx context.Context) []R {
	rows := make([]R, g.n)
	g.Run(ctx, func(i int, row R) { rows[i] = row })
	return rows
}

// streamGrid commits a streaming NDJSON response (with a cell-count
// header) and runs the grid, writing and flushing one row per line the
// moment its cell completes.
func streamGrid[R any](w http.ResponseWriter, r *http.Request, cellsHeader string, g Grid[R]) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set(cellsHeader, fmt.Sprint(g.n))
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	var mu sync.Mutex
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	g.Run(r.Context(), func(_ int, row R) {
		mu.Lock()
		defer mu.Unlock()
		_ = enc.Encode(row) // Encode terminates each row with '\n'
		if flusher != nil {
			flusher.Flush()
		}
	})
}

// studyAnswer is what one study execution hands the result cache and
// the requests that joined it: the reply without its per-request
// Source, or the error that ended the execution. Only replies are
// cached. No dataset or core.Study outlives the execution that built
// it.
type studyAnswer struct {
	resp StudyResponse
	err  error
}

// studyWire answers one wire spec through the study executor; a
// request that leaves its policy unset gets the server's default.
func (s *Server) studyWire(ctx context.Context, wire StudySpec) (StudyResponse, error) {
	sp, err := wire.toSpec()
	if err != nil {
		return StudyResponse{}, err
	}
	if wire.Policy == nil || wire.Policy.DLB == nil {
		sp.DLB = s.opts.DefaultDLB
	}
	return s.study(ctx, sp)
}

// study is the one study executor, behind /v1/study, /v1/feasibility,
// /v1/campaign entries and /v1/scenario cells. It resolves sp and
// bounds its geometry (dataset-backed specs carry their own samples).
// A bare app spec — no Model, no Dataset — dispatches whole over
// /v1/study when the fleet is a WholeDispatcher and a worker takes it;
// everything else answers through the coalescing stack: LRU result
// cache, then singleflight join, then execution on the engine (whose
// dataset cache is a further sharing layer underneath). Dataset-backed
// specs coalesce too: their key includes the dataset's identity.
func (s *Server) study(ctx context.Context, sp engine.Spec) (StudyResponse, error) {
	resolved, err := sp.Resolve()
	if err != nil {
		return StudyResponse{}, err
	}
	if n := resolved.Geometry.Samples(); resolved.Dataset == nil && n > s.maxStudySamples {
		return StudyResponse{}, fmt.Errorf(
			"geometry has %d samples, over the study limit %d; use /v1/sweep, which streams the samples and bounds accumulator state",
			n, s.maxStudySamples)
	}
	// The check reads the pre-resolution spec: Resolve fills Model in
	// for bare apps too.
	if wd, ok := s.opts.Fleet.(WholeDispatcher); ok && sp.Model == nil && sp.Dataset == nil {
		var resp StudyResponse
		if wd.DispatchWhole(ctx, resolved.Key().Hash(), "/v1/study", WireStudySpec(resolved), &resp) {
			s.fleetCells.Add(1)
			resp.Federated = true
			return resp, nil
		}
		s.fleetFallbacks.Add(1)
	}
	a, src := s.co.Do(resolved.Key(), func() (studyAnswer, bool) {
		// Adaptive admission gates the execution, not the lookup: cache
		// hits and joins to in-flight executions cost no fill capacity
		// and are always served.
		if err := s.admit(); err != nil {
			return studyAnswer{err: err}, false
		}
		defer s.acquire()()
		r, err := s.eng.RunSpec(resolved)
		if err != nil {
			return studyAnswer{err: err}, false
		}
		return studyAnswer{resp: StudyResponse{
			App:             r.Spec.App,
			Geometry:        r.Spec.Geometry,
			Alpha:           r.Spec.Alpha,
			DLB:             r.Spec.DLB,
			Metrics:         r.Metrics,
			Table1:          r.Table1,
			Assessment:      r.Assessment,
			DatasetCacheHit: r.CacheHit,
		}}, true
	})
	s.sources.count(src)
	a.resp.Source = src
	return a.resp, a.err
}

func (s *Server) handleStudy(w http.ResponseWriter, r *http.Request) {
	var wire StudySpec
	if err := decodeBody(w, r, &wire); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	resp, err := s.studyWire(r.Context(), wire)
	if err != nil {
		writeStudyError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleFeasibility(w http.ResponseWriter, r *http.Request) {
	var wire StudySpec
	if err := decodeBody(w, r, &wire); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	resp, err := s.studyWire(r.Context(), wire)
	if err != nil {
		writeStudyError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, FeasibilityResponse{
		App:        resp.App,
		Geometry:   resp.Geometry,
		Assessment: resp.Assessment,
		Source:     resp.Source,
		Federated:  resp.Federated,
	})
}

// campaignGrid is the grid of a campaign request: one entry per spec,
// each answered by the study executor. A failed entry carries its error
// and an empty analysis.
func (s *Server) campaignGrid(req CampaignRequest) Grid[CampaignEntry] {
	return newGrid(s, len(req.Specs), req.Workers, func(ctx context.Context, i int) CampaignEntry {
		resp, err := s.studyWire(ctx, req.Specs[i])
		if err != nil {
			return CampaignEntry{Index: i, Err: err.Error()}
		}
		return CampaignEntry{Index: i, StudyResponse: resp}
	})
}

func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	var req CampaignRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Specs) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("campaign needs at least one spec"))
		return
	}
	if len(req.Specs) > maxCampaignSpecs {
		writeError(w, http.StatusBadRequest, fmt.Errorf("campaign has %d specs, limit %d", len(req.Specs), maxCampaignSpecs))
		return
	}
	resp := CampaignResponse{Results: s.campaignGrid(req).Rows(r.Context())}
	for i := range resp.Results {
		if resp.Results[i].Err != "" {
			resp.Failed++
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{
		UptimeSec: time.Since(s.start).Seconds(),
		Endpoints: make(map[string]EndpointSnapshot, len(s.endpoints)),
		Study: StudySourceStats{
			ResultCacheHits: s.sources.lruHits.Load(),
			Coalesced:       s.sources.coalesced.Load(),
			Executed:        s.sources.executed.Load(),
			ResultCacheSize: s.co.Len(),
		},
		Strategies: StudySourceStats{
			ResultCacheHits: s.stratSources.lruHits.Load(),
			Coalesced:       s.stratSources.coalesced.Load(),
			Executed:        s.stratSources.executed.Load(),
			ResultCacheSize: s.strat.Len(),
		},
		Engine: EngineStats{
			Executions:      s.eng.Executions(),
			CachedDatasets:  s.eng.CachedDatasets(),
			EvictedDatasets: s.eng.EvictedDatasets(),
			NestedViews:     s.eng.NestedViews(),
			Workers:         s.eng.Workers(),
		},
	}
	tot := s.tel.Totals()
	resp.Telemetry = TelemetryStats{
		StudiesStarted:  tot.StudiesStarted,
		StudiesFinished: tot.StudiesFinished,
		ActiveStudies:   tot.ActiveStudies,
		Blocks:          tot.Blocks,
		Samples:         tot.Samples,
		BusySeconds:     tot.BusySeconds,
		LendEvents:      tot.LendEvents,
		Active:          s.tel.Active(),
	}
	eff, live := s.tel.Efficiency()
	resp.Admission = AdmissionStats{
		Watermark:  s.opts.AdmissionWatermark,
		Efficiency: eff,
		SignalLive: live,
		Sheds:      s.admissionSheds.Load(),
	}
	for path, st := range s.endpoints {
		resp.Endpoints[path] = st.snapshot()
	}
	if s.opts.Fleet != nil {
		snap := s.opts.Fleet.Snapshot()
		snap.CellsDispatched = s.fleetCells.Load()
		snap.LocalFallbacks = s.fleetFallbacks.Load()
		resp.Fleet = &snap
	}
	writeJSON(w, http.StatusOK, resp)
}

// HealthzResponse is the /v1/healthz reply. Beyond liveness it carries
// the worker's live load signal: a fleet coordinator's probe loop reads
// Capacity and weights rendezvous scheduling with it, so cells drain
// around a degraded worker long before it goes binary-unhealthy.
type HealthzResponse struct {
	Status string `json:"status"`
	// ActiveStudies is the number of generations currently filling.
	ActiveStudies int `json:"active_studies"`
	// Efficiency is the live aggregate fill efficiency (0 when idle).
	Efficiency float64 `json:"efficiency"`
	// Capacity is the scheduling weight this worker advertises: 1 when
	// idle, otherwise its live efficiency floored at minWorkerCapacity.
	Capacity float64 `json:"capacity"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := HealthzResponse{Status: "ok", ActiveStudies: s.tel.ActiveCount(), Capacity: 1}
	if eff, live := s.tel.Efficiency(); live {
		resp.Efficiency = eff
		resp.Capacity = eff
		if resp.Capacity < minWorkerCapacity {
			resp.Capacity = minWorkerCapacity
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// ListenAndServe listens on addr and serves until Shutdown (returning
// http.ErrServerClosed) or a listener error.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	err = s.Serve(ln)
	ln.Close() // usually already closed by Shutdown; harmless otherwise
	return err
}

// Serve serves on an existing listener until Shutdown or error. A server
// that was already shut down returns http.ErrServerClosed immediately.
func (s *Server) Serve(ln net.Listener) error {
	return s.httpSrv.Serve(ln)
}

// Shutdown gracefully stops the server: the listener closes immediately,
// in-flight requests drain until they finish or ctx expires. Shutting
// down before Serve is safe and makes any later Serve return
// http.ErrServerClosed.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.httpSrv.Shutdown(ctx)
}

// defaultedGeometry maps the zero geometry to the paper's, mirroring
// engine.Spec's defaulting for wire specs that omit the field.
func defaultedGeometry(g cluster.Config) cluster.Config {
	if g == (cluster.Config{}) {
		return cluster.DefaultConfig()
	}
	return g
}
