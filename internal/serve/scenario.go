package serve

import (
	"context"
	"fmt"
	"net/http"
	"strings"

	"earlybird/internal/scenario"
	"earlybird/internal/trace"
)

// ScenarioRequest is the /v1/scenario body: a scenario document compiled
// and verified server-side, then executed as one coalesced campaign.
type ScenarioRequest struct {
	// Scenario is the scenario document, verbatim — the same YAML (or
	// JSON) text `earlybird -scenario` reads from disk. Trace sources
	// must inline their CSV (`csv:`): server-side file paths do not
	// travel over the wire.
	Scenario string `json:"scenario"`
	// Check compiles and verifies only: the response carries the campaign
	// plan and coverage accounting, and no cell executes.
	Check bool `json:"check,omitempty"`
	// Stream switches the response to NDJSON: one ScenarioRow per line,
	// written as each cell completes.
	Stream bool `json:"stream,omitempty"`
	// Workers bounds how many cells run concurrently; omitted or <= 0
	// uses the engine's bound.
	Workers int `json:"workers,omitempty"`
}

// ScenarioRow is one compiled cell's outcome: the cell's declared
// coordinates (canonical axis strings, so rows are self-describing)
// plus the full study analysis, federated or not.
type ScenarioRow struct {
	Index int `json:"index"`
	// Workload is the cell's source key ("app:minife",
	// "trace:inline#0"); Geometry, Noise and DLB are empty for trace
	// sources, whose datasets carry their own shape.
	Workload      string  `json:"workload"`
	Geometry      string  `json:"geometry,omitempty"`
	Noise         string  `json:"noise,omitempty"`
	DLB           string  `json:"dlb,omitempty"`
	Fabric        string  `json:"fabric"`
	BinTimeoutSec float64 `json:"bin_timeout_sec"`

	StudyResponse
	Err string `json:"error,omitempty"`
}

// ScenarioResponse is the JSON-mode /v1/scenario reply.
type ScenarioResponse struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Cells and UniqueSpecs echo the verifier's coverage accounting:
	// declared cross-product size and distinct studies after dedup.
	Cells       int `json:"cells"`
	UniqueSpecs int `json:"unique_specs"`
	// Plan is the compiled campaign rendering (check mode only).
	Plan string `json:"plan,omitempty"`
	// Rows are the per-cell results in campaign order (empty in check
	// mode).
	Rows   []ScenarioRow `json:"rows,omitempty"`
	Failed int           `json:"failed,omitempty"`
}

// compileScenario parses, compiles and verifies a wire scenario. The
// trace loader only accepts inline CSV: a path in a wire spec would read
// the server's filesystem.
func (s *Server) compileScenario(text string) (*scenario.Compiled, scenario.Coverage, error) {
	spec, err := scenario.Parse([]byte(text))
	if err != nil {
		return nil, scenario.Coverage{}, err
	}
	c, err := spec.Compile(scenario.CompileOptions{
		LoadTrace: func(src scenario.Source) (*trace.Dataset, error) {
			if src.CSV == "" {
				return nil, fmt.Errorf("trace source %q names a server-side path; inline the CSV in the \"csv\" field instead", src.Trace)
			}
			return trace.ReadCSV(strings.NewReader(src.CSV))
		},
	})
	if err != nil {
		return nil, scenario.Coverage{}, err
	}
	if len(c.Cells) > maxSweepCells {
		return nil, scenario.Coverage{}, fmt.Errorf("scenario compiles to %d cells, limit %d", len(c.Cells), maxSweepCells)
	}
	cov, err := c.Verify()
	if err != nil {
		// A verification failure here is a compiler bug, not a bad
		// request — but refusing to run an unproven campaign is the
		// endpoint's contract either way.
		return nil, scenario.Coverage{}, fmt.Errorf("compiled campaign failed verification: %w", err)
	}
	return c, cov, nil
}

// handleScenario answers POST /v1/scenario: the scenario document is
// compiled and coverage-verified server-side, then — unless "check" is
// set — executed cell by cell through the same coalescing stack as
// /v1/study, with wire-expressible cells federated across the fleet
// when one is configured.
func (s *Server) handleScenario(w http.ResponseWriter, r *http.Request) {
	var req ScenarioRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if strings.TrimSpace(req.Scenario) == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("scenario document is empty"))
		return
	}
	c, cov, err := s.compileScenario(req.Scenario)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	resp := ScenarioResponse{
		Name:        c.Spec.Name,
		Description: c.Spec.Description,
		Cells:       cov.Cells,
		UniqueSpecs: cov.UniqueSpecs,
	}
	if req.Check {
		resp.Plan = c.Plan()
		writeJSON(w, http.StatusOK, resp)
		return
	}

	g := s.ScenarioGrid(c, req.Workers)
	if req.Stream {
		streamGrid(w, r, "X-Scenario-Cells", g)
		return
	}
	resp.Rows = g.Rows(r.Context())
	for i := range resp.Rows {
		if resp.Rows[i].Err != "" {
			resp.Failed++
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// ScenarioGrid is the grid of a compiled, verified scenario: one row
// per compiled cell, each answered by the study executor behind
// /v1/study — wire-expressible cells federate across the fleet when one
// is configured. workers <= 0 means the engine's bound.
func (s *Server) ScenarioGrid(c *scenario.Compiled, workers int) Grid[ScenarioRow] {
	return newGrid(s, len(c.Cells), workers, func(ctx context.Context, i int) ScenarioRow {
		cell := c.Cells[i]
		row := ScenarioRow{
			Index:         cell.Index,
			Workload:      cell.SourceKey,
			Geometry:      cell.Geometry,
			Noise:         cell.Noise,
			DLB:           cell.DLB,
			Fabric:        cell.Fabric,
			BinTimeoutSec: cell.BinTimeoutSec,
		}
		resp, err := s.study(ctx, cell.Spec)
		if err != nil {
			row.Err = err.Error()
		} else {
			row.StudyResponse = resp
		}
		return row
	})
}
