package serve

import (
	"context"
	"fmt"
	"net/http"

	"earlybird/internal/analysis"
	"earlybird/internal/cluster"
	"earlybird/internal/core"
	"earlybird/internal/dlb"
)

// SweepRequest describes a scenario grid: the cross product of
// applications, geometries, significance levels and laggard thresholds.
// Omitted axes default to one paper-default point, so {"apps":
// ["minife","miniqmc"]} is a two-cell sweep.
type SweepRequest struct {
	// Apps are the built-in application models to sweep.
	Apps []string `json:"apps"`
	// Geometries and GeometryNames together form the geometry axis; a
	// zero geometry entry means the paper's. Both empty means one
	// paper-geometry point.
	Geometries    []cluster.Config `json:"geometries,omitempty"`
	GeometryNames []string         `json:"geometry_names,omitempty"`
	// Alphas is the normality significance axis; empty or 0 means 0.05.
	Alphas []float64 `json:"alphas,omitempty"`
	// LaggardThresholdsSec is the laggard rule axis; empty or 0 means 1 ms.
	LaggardThresholdsSec []float64 `json:"laggard_thresholds_sec,omitempty"`
	// DLBs is the runtime rebalancing axis; empty means one point at the
	// server's default policy (static unless the server overrides it).
	DLBs []dlb.Spec `json:"dlbs,omitempty"`
	// Workers bounds how many cells run concurrently; omitted or <= 0
	// uses the engine's bound.
	Workers int `json:"workers,omitempty"`
}

// SweepRow is one NDJSON line of the /v1/sweep response: one grid cell's
// streaming analysis. Rows arrive in completion order; Index places the
// row in the request grid (app-major, then geometry, alpha, threshold).
type SweepRow struct {
	Index               int                 `json:"index"`
	App                 string              `json:"app"`
	Geometry            cluster.Config      `json:"geometry"`
	Alpha               float64             `json:"alpha"`
	LaggardThresholdSec float64             `json:"laggard_threshold_sec"`
	DLB                 dlb.Spec            `json:"dlb"`
	Metrics             analysis.AppMetrics `json:"metrics"`
	Table1              analysis.Table1     `json:"table1"`
	// Recommendation is the Section 5 verdict from the streaming
	// discriminants (core.ClassifyMetrics).
	Recommendation core.Recommendation `json:"recommendation"`
	Err            string              `json:"error,omitempty"`
	// Shards and ShardWorkers report federated execution: how many trial
	// shards the cell was split into and which workers computed them (in
	// shard order). Empty for locally computed rows.
	Shards       int      `json:"shards,omitempty"`
	ShardWorkers []string `json:"shard_workers,omitempty"`
	// StoreHit reports the row was served from the coordinator's durable
	// result store — no shard was dispatched or executed for it.
	StoreHit bool `json:"store_hit,omitempty"`
}

// SweepCell is one expanded cell of a sweep grid: the unit the sweep
// handler computes locally and the fleet scheduler dispatches to
// workers. Alpha, LaggardThresholdSec and DLB are fully resolved (no
// zero defaults left; the zero DLB is canonical static).
type SweepCell struct {
	Index               int            `json:"index"`
	App                 string         `json:"app"`
	Geometry            cluster.Config `json:"geometry"`
	Alpha               float64        `json:"alpha"`
	LaggardThresholdSec float64        `json:"laggard_threshold_sec"`
	DLB                 dlb.Spec       `json:"dlb"`
}

// Cells expands the request into its grid, in deterministic app-major
// order (then geometry, alpha, threshold, DLB policy) — the Index of
// each cell is its position in that order. A zero alpha or laggard
// threshold means the paper's default, and DLB entries resolve to their
// canonical form, so spelled-out defaults occupy the same cell as their
// shorthand.
func (req SweepRequest) Cells() ([]SweepCell, error) {
	if len(req.Apps) == 0 {
		return nil, fmt.Errorf("sweep needs at least one app")
	}
	geoms, err := geometryAxis(req.Geometries, req.GeometryNames)
	if err != nil {
		return nil, err
	}
	// An empty axis is one zero point, which paperDefaults fills below.
	alphas, laggards := req.Alphas, req.LaggardThresholdsSec
	if len(alphas) == 0 {
		alphas = []float64{0}
	}
	if len(laggards) == 0 {
		laggards = []float64{0}
	}
	dlbs := make([]dlb.Spec, 0, len(req.DLBs))
	for _, d := range req.DLBs {
		resolved, err := d.Resolve()
		if err != nil {
			return nil, err
		}
		dlbs = append(dlbs, resolved)
	}
	if len(dlbs) == 0 {
		dlbs = []dlb.Spec{{}}
	}

	n := len(req.Apps) * len(geoms) * len(alphas) * len(laggards) * len(dlbs)
	if n > maxSweepCells {
		return nil, fmt.Errorf("sweep grid has %d cells, limit %d", n, maxSweepCells)
	}
	cells := make([]SweepCell, 0, n)
	for _, app := range req.Apps {
		for _, g := range geoms {
			for _, a := range alphas {
				for _, l := range laggards {
					alpha, laggard := paperDefaults(a, l)
					for _, d := range dlbs {
						cells = append(cells, SweepCell{
							Index: len(cells), App: app, Geometry: g, DLB: d,
							Alpha: alpha, LaggardThresholdSec: laggard,
						})
					}
				}
			}
		}
	}
	return cells, nil
}

// geometryAxis resolves a grid's geometry axis: the explicit geometries
// (a zero entry means the paper's), then the named ones. Both empty
// means one paper-geometry point.
func geometryAxis(explicit []cluster.Config, names []string) ([]cluster.Config, error) {
	geoms := make([]cluster.Config, 0, len(explicit)+len(names))
	for _, g := range explicit {
		geoms = append(geoms, defaultedGeometry(g))
	}
	for _, name := range names {
		g, err := namedGeometry(name)
		if err != nil {
			return nil, err
		}
		geoms = append(geoms, g)
	}
	if len(geoms) == 0 {
		geoms = []cluster.Config{cluster.DefaultConfig()}
	}
	return geoms, nil
}

// ShardRequest is the cell's whole trial space [0, Trials) as a shard
// request; a fleet narrows its trial range per shard.
func (c SweepCell) ShardRequest() ShardRequest {
	geom := c.Geometry
	req := ShardRequest{
		App:        c.App,
		Geometry:   &geom,
		Alpha:      c.Alpha,
		LaggardSec: c.LaggardThresholdSec,
		TrialHi:    geom.Trials,
	}
	if !c.DLB.IsStatic() {
		policy := c.DLB
		req.DLB = &policy
	}
	return req
}

// Row finalizes the cell's accumulators — one shard's, or many merged —
// into its sweep row, classified by core.ClassifyMetrics, and releases
// m, which must not be used afterwards. Provenance (shards, store hit)
// is the caller's to set.
func (c SweepCell) Row(m *analysis.MetricsAccumulator, t *analysis.Table1Accumulator) SweepRow {
	row := c.rowOf(m.Finalize(), t.Finalize())
	m.Release()
	return row
}

// rowOf is the cell's row of finalized metrics and Table 1 row.
func (c SweepCell) rowOf(m analysis.AppMetrics, t analysis.Table1) SweepRow {
	row := c.identityRow()
	row.Metrics, row.Table1 = m, t
	row.Recommendation = core.ClassifyMetrics(m)
	return row
}

// ErrorRow is the row of a cell that failed with err.
func (c SweepCell) ErrorRow(err error) SweepRow {
	row := c.identityRow()
	row.Err = err.Error()
	return row
}

func (c SweepCell) identityRow() SweepRow {
	return SweepRow{
		Index:               c.Index,
		App:                 c.App,
		Geometry:            c.Geometry,
		Alpha:               c.Alpha,
		LaggardThresholdSec: c.LaggardThresholdSec,
		DLB:                 c.DLB,
	}
}

// sweepCell analyses one grid cell locally (sweepCells).
func (s *Server) sweepCell(c SweepCell) SweepRow { return s.sweepCells([]SweepCell{c})[0] }

// sweepCells analyses locally cells that share one fill — one app,
// geometry and policy, differing at most in alpha and laggard threshold
// (fillGroups) — and returns their rows in order. They are the shard
// [0, Trials) of the first cell, read at every cell's alpha and
// threshold by runShard — so a local row, a worker's shard and a
// fleet's merged row share one executor and one finalizer, and neither
// the grouping nor the sample bound changes any answer. A cell whose
// parameters do not resolve gets its own error row.
func (s *Server) sweepCells(cells []SweepCell) []SweepRow {
	rows := make([]SweepRow, len(cells))
	var req ShardRequest
	var read []int // the cells the fold answers, in reading order
	for i, c := range cells {
		one, err := c.ShardRequest().Resolve()
		if err != nil {
			rows[i] = c.ErrorRow(err)
			continue
		}
		if len(read) == 0 {
			req = one
		} else {
			req.Readings = append(req.Readings, Reading{Alpha: one.Alpha, LaggardSec: one.LaggardSec})
		}
		read = append(read, i)
	}
	if len(read) == 0 {
		return rows
	}
	f, err := s.runShard(req)
	if err != nil {
		for _, i := range read {
			rows[i] = cells[i].ErrorRow(err)
		}
		return rows
	}
	// A metrics accumulator that several readings share finalizes once.
	final := map[*analysis.MetricsAccumulator]analysis.AppMetrics{}
	for k, i := range read {
		m, ok := final[f.metrics[k]]
		if !ok {
			m = f.metrics[k].Finalize()
			final[f.metrics[k]] = m
		}
		rows[i] = cells[i].rowOf(m, f.table1[k].Finalize())
	}
	f.release()
	return rows
}

// fillGroups partitions cells into the groups that share one fill: the
// same app, geometry and policy. Groups come in the order of their
// first cell, and each keeps its cells' order.
func fillGroups(cells []SweepCell) [][]SweepCell {
	type fill struct {
		app    string
		geom   cluster.Config
		policy string
	}
	at := map[fill]int{}
	var groups [][]SweepCell
	for _, c := range cells {
		k := fill{c.App, c.Geometry, c.DLB.String()}
		i, ok := at[k]
		if !ok {
			i = len(groups)
			at[k] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], c)
	}
	return groups
}

// SweepGrid expands a sweep request into its grid. Each cell shards
// across the fleet when one is configured (Options.Fleet) and runs
// locally when no healthy peer can take it, or when there is no fleet.
// A request that leaves the DLB axis empty gets the server's default
// policy.
func (s *Server) SweepGrid(req SweepRequest) (Grid[SweepRow], error) {
	if len(req.DLBs) == 0 {
		req.DLBs = []dlb.Spec{s.opts.DefaultDLB}
	}
	cells, err := req.Cells()
	if err != nil {
		return Grid[SweepRow]{}, err
	}
	groups := fillGroups(cells)
	return newGroupedGrid(s, len(cells), len(groups), req.Workers, func(ctx context.Context, g int, emit func(int, SweepRow)) {
		s.runSweepCells(ctx, groups[g], func(row SweepRow) { emit(row.Index, row) })
	}), nil
}

// runSweepCells answers one fill group's cells, emitting each row as it
// is ready: merged from the fleet's shards for the cells a worker takes,
// and locally, under the server's execution semaphore, for the rest.
func (s *Server) runSweepCells(ctx context.Context, cells []SweepCell, emit func(SweepRow)) {
	if s.opts.Fleet != nil {
		left := s.dispatchCells(ctx, cells, emit)
		s.fleetCells.Add(int64(len(cells) - len(left)))
		s.fleetFallbacks.Add(int64(len(left)))
		if cells = left; len(cells) == 0 {
			return
		}
	}
	defer s.acquire()()
	for _, row := range s.sweepCells(cells) {
		emit(row)
	}
}

// dispatchCells offers one fill group's cells to the fleet — whole to a
// GroupDispatcher, one by one otherwise — and returns those it could not
// place.
func (s *Server) dispatchCells(ctx context.Context, cells []SweepCell, emit func(SweepRow)) []SweepCell {
	if d, ok := s.opts.Fleet.(GroupDispatcher); ok {
		return d.DispatchCells(ctx, cells, emit)
	}
	var left []SweepCell
	for _, c := range cells {
		if row, ok := s.opts.Fleet.DispatchCell(ctx, c); ok {
			emit(row)
		} else {
			left = append(left, c)
		}
	}
	return left
}

// handleSweep streams the grid as NDJSON: one row per cell, written and
// flushed the moment the cell completes, so clients see results while
// the rest of the grid is still computing. Each in-flight cell holds its
// accumulator state (bounded through maxTrialIterations) plus its fold's
// fill-side state: one fill worker's at or under maxBoundedShardSamples
// samples, the fold's fixed state budget above it (runShard). No cell
// leaves a dataset behind.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	g, err := s.SweepGrid(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	streamGrid(w, r, "X-Sweep-Cells", g)
}
