package serve

import (
	"fmt"
	"net/http"

	"earlybird/internal/analysis"
	"earlybird/internal/cluster"
	"earlybird/internal/core"
	"earlybird/internal/dlb"
	"earlybird/internal/stats/normality"
	"earlybird/internal/workload"
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
	// Alphas is the normality significance axis; empty means [0.05].
	Alphas []float64 `json:"alphas,omitempty"`
	// LaggardThresholdsSec is the laggard rule axis; empty means [1 ms].
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
// each cell is its position in that order. DLB entries resolve to their
// canonical form, so spelled-out defaults occupy the same cell as their
// shorthand.
func (req SweepRequest) Cells() ([]SweepCell, error) {
	if len(req.Apps) == 0 {
		return nil, fmt.Errorf("sweep needs at least one app")
	}
	geoms := make([]cluster.Config, 0, len(req.Geometries)+len(req.GeometryNames))
	for _, g := range req.Geometries {
		geoms = append(geoms, defaultedGeometry(g))
	}
	for _, name := range req.GeometryNames {
		g, err := namedGeometry(name)
		if err != nil {
			return nil, err
		}
		geoms = append(geoms, g)
	}
	if len(geoms) == 0 {
		geoms = []cluster.Config{cluster.DefaultConfig()}
	}
	alphas := req.Alphas
	if len(alphas) == 0 {
		alphas = []float64{normality.DefaultAlpha}
	}
	laggards := req.LaggardThresholdsSec
	if len(laggards) == 0 {
		laggards = []float64{analysis.DefaultLaggardThresholdSec}
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
					for _, d := range dlbs {
						cells = append(cells, SweepCell{
							Index: len(cells), App: app, Geometry: g, Alpha: a, LaggardThresholdSec: l, DLB: d,
						})
					}
				}
			}
		}
	}
	return cells, nil
}

// sweepCell analyses one grid cell without ever building the nested
// tensor view: cached geometries read the engine's columnar store
// through fresh cursors; larger ones run the bounded-memory streaming
// fill and bypass the cache entirely.
func (s *Server) sweepCell(c SweepCell) SweepRow {
	row := SweepRow{
		Index:               c.Index,
		App:                 c.App,
		Geometry:            c.Geometry,
		Alpha:               c.Alpha,
		LaggardThresholdSec: c.LaggardThresholdSec,
		DLB:                 c.DLB,
	}
	if err := c.Geometry.Validate(); err != nil {
		row.Err = err.Error()
		return row
	}
	if c.Geometry.Samples() <= s.maxSweepSamples {
		model, err := workload.ByName(c.App)
		if err != nil {
			row.Err = err.Error()
			return row
		}
		col, hit, err := s.eng.ColumnarDLB(model, c.Geometry, c.DLB)
		if err != nil {
			row.Err = err.Error()
			return row
		}
		row.DatasetCacheHit = hit
		macc := analysis.NewMetricsAccumulator(c.App, c.LaggardThresholdSec)
		tacc := analysis.NewTable1Accumulator(c.App, c.Alpha)
		analysis.NewKernel(macc, tacc).ObserveCursor(col.Cursor(), 0)
		row.Metrics, row.Table1 = macc.Finalize(), tacc.Finalize()
	} else {
		// The streaming fill bypasses the engine (and its progress
		// factory), so register the cell's live tracker here.
		tr := s.newTracker(c.App, c.Geometry, c.DLB)
		res, err := core.StreamStudy(core.Options{
			App:      c.App,
			Geometry: c.Geometry,
			Policy: core.PolicySpec{
				DLB:                 c.DLB,
				Alpha:               c.Alpha,
				LaggardThresholdSec: c.LaggardThresholdSec,
			},
			Progress: tr,
		})
		s.tel.Finish(tr)
		if err != nil {
			row.Err = err.Error()
			return row
		}
		row.Streamed = true
		row.Metrics = res.Metrics
		row.Table1 = res.Table1
	}
	row.Recommendation = core.ClassifyMetrics(row.Metrics)
	return row
}

// handleSweep streams the grid as NDJSON: one row per cell, written and
// flushed the moment the cell completes, so clients see results while
// the rest of the grid is still computing and the server never holds
// more than the in-flight cells' accumulator state. With a fleet
// configured (Options.Fleet), cells fan out to the fleet's workers
// transparently and only fall back to local execution when no healthy
// peer can take them.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.DLBs) == 0 {
		req.DLBs = []dlb.Spec{s.opts.DefaultDLB}
	}
	cells, err := req.Cells()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	emit := startNDJSON(w, "X-Sweep-Cells", len(cells))
	fanOut(len(cells), s.clampWorkers(req.Workers, len(cells)), func(i int) {
		if s.opts.Fleet != nil {
			if row, ok := s.opts.Fleet.DispatchCell(r.Context(), cells[i]); ok {
				s.fleetCells.Add(1)
				emit(row)
				return
			}
			s.fleetFallbacks.Add(1)
		}
		release := s.acquire()
		row := s.sweepCell(cells[i])
		release()
		emit(row)
	})
}
