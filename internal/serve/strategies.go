package serve

import (
	"context"
	"fmt"
	"net/http"

	"earlybird/internal/analysis"
	"earlybird/internal/cluster"
	"earlybird/internal/core"
	"earlybird/internal/dlb"
	"earlybird/internal/engine"
	"earlybird/internal/fnv"
	"earlybird/internal/network"
	"earlybird/internal/partcomm"
	"earlybird/internal/workload"
)

// StrategiesRequest describes one strategy-lab run: a grid of (app,
// geometry) cells, each evaluated against the same delivery-strategy
// grid — bulk and fine-grained anchors, binned delivery at every
// timeout, EWMA-predicted binning at every smoothing factor, the
// IQR-switching hybrid, and a laggard-aware policy tuned per cell from
// the measured laggard statistics. Omitted axes default to one
// paper-default point; omitted grid parameters default to the standard
// optimizer grid.
type StrategiesRequest struct {
	// Apps are the built-in application models to evaluate.
	Apps []string `json:"apps"`
	// Geometries and GeometryNames together form the geometry axis; a
	// zero geometry entry means the paper's. Both empty means one
	// paper-geometry point.
	Geometries    []cluster.Config `json:"geometries,omitempty"`
	GeometryNames []string         `json:"geometry_names,omitempty"`
	// BytesPerPartition sizes the partitions (one per thread); omitted
	// means 1 MiB.
	BytesPerPartition int `json:"bytes_per_partition,omitempty"`
	// Fabric overrides the interconnect model; omitted means the
	// paper's Omni-Path parameters.
	Fabric *network.Fabric `json:"fabric,omitempty"`
	// TimeoutsSec is the binned-delivery timeout axis; empty means the
	// standard grid (0.25, 0.5, 1, 2 ms).
	TimeoutsSec []float64 `json:"timeouts_sec,omitempty"`
	// EWMAAlphas is the EWMA-binning smoothing axis; empty means [0.2].
	EWMAAlphas []float64 `json:"ewma_alphas,omitempty"`
	// LaggardThresholdSec tunes the laggard statistics feeding the
	// laggard-aware strategy; omitted means the paper's 1 ms rule.
	LaggardThresholdSec float64 `json:"laggard_threshold_sec,omitempty"`
	// DLB is the runtime rebalancing policy every cell's dataset is
	// generated under; omitted means the server's default (static unless
	// the server overrides it).
	DLB *dlb.Spec `json:"dlb,omitempty"`
	// Stream switches the response to NDJSON: one StrategyRow per line,
	// written as each cell completes.
	Stream bool `json:"stream,omitempty"`
	// Workers bounds how many cells run concurrently; omitted or <= 0
	// uses the engine's bound.
	Workers int `json:"workers,omitempty"`
}

// StrategyRow is one (app, geometry) cell's outcome: the per-strategy
// results plus the frontier, computed entirely on the columnar cursor
// path.
type StrategyRow struct {
	Index             int            `json:"index"`
	App               string         `json:"app"`
	Geometry          cluster.Config `json:"geometry"`
	BytesPerPartition int            `json:"bytes_per_partition"`
	// DLB echoes the resolved rebalancing policy the cell's dataset was
	// generated under (zero value: static).
	DLB dlb.Spec `json:"dlb"`
	partcomm.Sweep
	// Source reports which layer answered: result-cache, coalesced or
	// executed (set on JSON and NDJSON rows alike).
	Source Source `json:"source,omitempty"`
	// DatasetCacheHit reports the evaluation read an engine-cached
	// columnar store rather than generating one (meaningful for
	// executed rows).
	DatasetCacheHit bool `json:"dataset_cache_hit"`
	// Federated reports the cell was dispatched whole to a fleet worker
	// rather than evaluated by this coordinator.
	Federated bool   `json:"federated,omitempty"`
	Err       string `json:"error,omitempty"`
}

// StrategiesResponse is the JSON-mode /v1/strategies reply: one row per
// cell, in grid order. Per-cell failures carry an error string; the
// other rows are still valid.
type StrategiesResponse struct {
	Rows   []StrategyRow `json:"rows"`
	Failed int           `json:"failed"`
}

// strategyCellKey identifies one cell's fully resolved evaluation for
// coalescing: the engine spec key (app, geometry, partition size,
// fabric) plus a hash of the strategy grid.
type strategyCellKey struct {
	spec engine.SpecKey
	grid uint64
}

// stratConfig is the request's resolved, cell-invariant configuration.
type stratConfig struct {
	bytesPerPartition int
	fabric            network.Fabric
	timeoutsSec       []float64
	ewmaAlphas        []float64
	laggardThreshold  float64
	dlb               dlb.Spec
	gridHash          uint64
}

// StrategyCell is one expanded (app, geometry) cell of a strategies
// grid: the unit the handler evaluates locally and a coordinator
// dispatches whole to a fleet worker (strategy cells are self-contained,
// so federation needs no accumulator plumbing — rows merge by
// concatenation).
type StrategyCell struct {
	Index    int            `json:"index"`
	App      string         `json:"app"`
	Geometry cluster.Config `json:"geometry"`
}

// resolve fills the request's defaults and hashes the strategy grid.
func (req StrategiesRequest) resolve() (stratConfig, error) {
	cfg := stratConfig{
		bytesPerPartition: req.BytesPerPartition,
		timeoutsSec:       req.TimeoutsSec,
		ewmaAlphas:        req.EWMAAlphas,
		laggardThreshold:  req.LaggardThresholdSec,
		fabric:            network.OmniPath(),
	}
	if err := engine.CheckAnalysis(0, req.LaggardThresholdSec, req.BytesPerPartition); err != nil {
		return cfg, err
	}
	if cfg.bytesPerPartition == 0 {
		cfg.bytesPerPartition = 1 << 20
	}
	if req.Fabric != nil {
		if err := req.Fabric.Validate(); err != nil {
			return cfg, err
		}
		cfg.fabric = *req.Fabric
	}
	if len(cfg.timeoutsSec) == 0 {
		cfg.timeoutsSec = core.DefaultStrategyTimeoutsSec()
	}
	for _, t := range cfg.timeoutsSec {
		if err := partcomm.CheckBinTimeout(t); err != nil {
			return cfg, fmt.Errorf("timeouts_sec: %w", err)
		}
	}
	if len(cfg.ewmaAlphas) == 0 {
		cfg.ewmaAlphas = core.DefaultStrategyEWMAAlphas()
	}
	for _, a := range cfg.ewmaAlphas {
		if a <= 0 || a > 1 {
			return cfg, fmt.Errorf("ewma_alphas entries must be in (0, 1], got %g", a)
		}
	}
	if cfg.laggardThreshold == 0 {
		cfg.laggardThreshold = analysis.DefaultLaggardThresholdSec
	}
	if req.DLB != nil {
		resolved, err := req.DLB.Resolve()
		if err != nil {
			return cfg, err
		}
		cfg.dlb = resolved
	}
	cfg.gridHash = cfg.hash()
	return cfg, nil
}

// hash folds the strategy-grid parameters into an FNV-1a value — the
// grid half of the coalescing key. (The app/geometry/partition/fabric
// half lives in the engine SpecKey.)
func (cfg stratConfig) hash() uint64 {
	h := fnv.U64(fnv.Offset64, uint64(len(cfg.timeoutsSec)))
	for _, t := range cfg.timeoutsSec {
		h = fnv.F64(h, t)
	}
	h = fnv.U64(h, uint64(len(cfg.ewmaAlphas)))
	for _, a := range cfg.ewmaAlphas {
		h = fnv.F64(h, a)
	}
	return fnv.F64(h, cfg.laggardThreshold)
}

// request is the single-cell request a coordinator sends a worker for
// c: every parameter resolved, so the worker evaluates exactly the cell
// this server would, whatever its own defaults.
func (cfg stratConfig) request(c StrategyCell) StrategiesRequest {
	fabric, policy := cfg.fabric, cfg.dlb
	return StrategiesRequest{
		Apps:                []string{c.App},
		Geometries:          []cluster.Config{c.Geometry},
		BytesPerPartition:   cfg.bytesPerPartition,
		Fabric:              &fabric,
		TimeoutsSec:         cfg.timeoutsSec,
		EWMAAlphas:          cfg.ewmaAlphas,
		LaggardThresholdSec: cfg.laggardThreshold,
		DLB:                 &policy,
	}
}

// Cells expands the request into its (app, geometry) grid, in
// deterministic app-major order.
func (req StrategiesRequest) Cells() ([]StrategyCell, error) {
	if len(req.Apps) == 0 {
		return nil, fmt.Errorf("strategies request needs at least one app")
	}
	geoms, err := geometryAxis(req.Geometries, req.GeometryNames)
	if err != nil {
		return nil, err
	}
	n := len(req.Apps) * len(geoms)
	if n > maxSweepCells {
		return nil, fmt.Errorf("strategy grid has %d cells, limit %d", n, maxSweepCells)
	}
	cells := make([]StrategyCell, 0, n)
	for _, app := range req.Apps {
		for _, g := range geoms {
			cells = append(cells, StrategyCell{Index: len(cells), App: app, Geometry: g})
		}
	}
	return cells, nil
}

// cellKey resolves one cell to its coalescing key. The engine spec
// carries app, geometry, partition size and fabric; analysis parameters
// that do not affect the strategy evaluation stay at their defaults so
// equal cells key equally.
func (s *Server) cellKey(c StrategyCell, cfg stratConfig) (strategyCellKey, error) {
	sp := engine.Spec{
		App:               c.App,
		Geometry:          c.Geometry,
		BytesPerPartition: cfg.bytesPerPartition,
		Fabric:            cfg.fabric,
		DLB:               cfg.dlb,
	}
	resolved, err := sp.Resolve()
	if err != nil {
		return strategyCellKey{}, err
	}
	return strategyCellKey{spec: resolved.Key(), grid: cfg.gridHash}, nil
}

// strategyCell evaluates one cell on the columnar cursor path: laggard
// statistics stream first (tuning the laggard-aware policy), then every
// strategy evaluates in a single cursor pass. The nested tensor view is
// never built.
func (s *Server) strategyCell(c StrategyCell, cfg stratConfig) StrategyRow {
	row := StrategyRow{
		Index:             c.Index,
		App:               c.App,
		Geometry:          c.Geometry,
		BytesPerPartition: cfg.bytesPerPartition,
		DLB:               cfg.dlb,
	}
	if err := c.Geometry.Validate(); err != nil {
		row.Err = err.Error()
		return row
	}
	if n := c.Geometry.Samples(); n > s.maxStudySamples {
		row.Err = fmt.Sprintf("geometry has %d samples, over the strategy-evaluation limit %d", n, s.maxStudySamples)
		return row
	}
	model, err := workload.ByName(c.App)
	if err != nil {
		row.Err = err.Error()
		return row
	}
	col, hit, err := s.eng.ColumnarDLB(model, c.Geometry, cfg.dlb)
	if err != nil {
		row.Err = err.Error()
		return row
	}
	row.DatasetCacheHit = hit
	row.Sweep = partcomm.GridSweep(col, cfg.bytesPerPartition, cfg.fabric, cfg.timeoutsSec, cfg.ewmaAlphas, cfg.laggardThreshold)
	return row
}

// runStrategyCell answers one cell: dispatched whole to a fleet worker
// when the configured fleet is a WholeDispatcher and a worker takes it,
// otherwise through the local coalescing stack — LRU result cache, then
// singleflight join, then execution under the server's worker
// semaphore.
func (s *Server) runStrategyCell(ctx context.Context, c StrategyCell, cfg stratConfig) StrategyRow {
	key, err := s.cellKey(c, cfg)
	if err != nil {
		return StrategyRow{Index: c.Index, App: c.App, Geometry: c.Geometry,
			BytesPerPartition: cfg.bytesPerPartition, DLB: cfg.dlb, Err: err.Error()}
	}
	if wd, ok := s.opts.Fleet.(WholeDispatcher); ok {
		var out StrategiesResponse
		if wd.DispatchWhole(ctx, key.spec.Hash(), "/v1/strategies", cfg.request(c), &out) && len(out.Rows) == 1 {
			s.fleetCells.Add(1)
			row := out.Rows[0]
			row.Index, row.Federated = c.Index, true
			return row
		}
		s.fleetFallbacks.Add(1)
	}
	row, src := s.strat.Do(key, func() (StrategyRow, bool) {
		defer s.acquire()()
		r := s.strategyCell(c, cfg)
		return r, r.Err == ""
	})
	s.stratSources.count(src)
	// Cached and coalesced answers echo the original execution's row;
	// re-stamp the identity fields that belong to this request.
	row.Index = c.Index
	row.Source = src
	return row
}

// StrategyGrid expands a strategies request into its grid. A request
// that leaves its policy unset gets the server's default.
func (s *Server) StrategyGrid(req StrategiesRequest) (Grid[StrategyRow], error) {
	if req.DLB == nil {
		d := s.opts.DefaultDLB
		req.DLB = &d
	}
	cfg, err := req.resolve()
	if err != nil {
		return Grid[StrategyRow]{}, err
	}
	cells, err := req.Cells()
	if err != nil {
		return Grid[StrategyRow]{}, err
	}
	return newGrid(s, len(cells), req.Workers, func(ctx context.Context, i int) StrategyRow {
		return s.runStrategyCell(ctx, cells[i], cfg)
	}), nil
}

// handleStrategies answers POST /v1/strategies: a JSON reply with every
// cell in grid order, or — with "stream": true — NDJSON rows written and
// flushed as cells complete.
func (s *Server) handleStrategies(w http.ResponseWriter, r *http.Request) {
	var req StrategiesRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	g, err := s.StrategyGrid(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Stream {
		streamGrid(w, r, "X-Strategy-Cells", g)
		return
	}
	resp := StrategiesResponse{Rows: g.Rows(r.Context())}
	for i := range resp.Rows {
		if resp.Rows[i].Err != "" {
			resp.Failed++
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
