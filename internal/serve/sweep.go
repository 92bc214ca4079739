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
	// DatasetCacheHit reports the cell was answered from the engine's
	// columnar cache without a fresh generation.
	DatasetCacheHit bool `json:"dataset_cache_hit"`
	// Streamed reports the cell ran on the bounded-memory streaming fill
	// (geometry above the cache bound) instead of the cached cursor path.
	Streamed bool   `json:"streamed"`
	Err      string `json:"error,omitempty"`
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
// into its sweep row, classified by core.ClassifyMetrics. Provenance
// (cache hit, streamed, shards, store hit) is the caller's to set.
func (c SweepCell) Row(m *analysis.MetricsAccumulator, t *analysis.Table1Accumulator) SweepRow {
	row := c.identityRow()
	row.Metrics, row.Table1 = m.Finalize(), t.Finalize()
	row.Recommendation = core.ClassifyMetrics(row.Metrics)
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

// sweepCell analyses one grid cell locally: it is the shard [0, Trials)
// of the cell, run by runShard — so a local row, a worker's shard and a
// fleet's merged row share one executor and one finalizer, and the
// cache bound changes only how the trials are filled, never the answer.
func (s *Server) sweepCell(c SweepCell) SweepRow {
	req, err := c.ShardRequest().Resolve()
	if err != nil {
		return c.ErrorRow(err)
	}
	hdr, macc, tacc, err := s.runShard(req)
	if err != nil {
		return c.ErrorRow(err)
	}
	row := c.Row(macc, tacc)
	row.DatasetCacheHit, row.Streamed = hdr.DatasetCacheHit, hdr.Streamed
	return row
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
	return newGrid(s, len(cells), req.Workers, func(ctx context.Context, i int) SweepRow {
		return s.runSweepCell(ctx, cells[i])
	}), nil
}

// runSweepCell answers one sweep cell: merged from the fleet's shards
// when a worker takes it, locally under the server's execution
// semaphore otherwise.
func (s *Server) runSweepCell(ctx context.Context, c SweepCell) SweepRow {
	if s.opts.Fleet != nil {
		if row, ok := s.opts.Fleet.DispatchCell(ctx, c); ok {
			s.fleetCells.Add(1)
			return row
		}
		s.fleetFallbacks.Add(1)
	}
	defer s.acquire()()
	return s.sweepCell(c)
}

// handleSweep streams the grid as NDJSON: one row per cell, written and
// flushed the moment the cell completes, so clients see results while
// the rest of the grid is still computing. Each in-flight cell holds its
// accumulator state (bounded through maxTrialIterations) plus either
// its dataset, at or under maxCachedSweepSamples samples, in the
// engine's cache, or the uncached fold's fixed fill-side state budget
// (runShard).
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
