package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"earlybird/internal/cliopts"
)

// Wire renders the spec as the JSON document form Parse reads back, with
// every path-backed trace source inlined (paths resolved relative to
// baseDir, the scenario file's directory) — the body a client POSTs to
// /v1/scenario, where server-side file paths are refused. Axis entries
// render as their canonical strings, so Parse(Wire(s)) decodes to the
// same spec with CSVs inlined.
func (s *Spec) Wire(baseDir string) ([]byte, error) {
	doc := map[string]any{"name": s.Name}
	if s.Description != "" {
		doc["description"] = s.Description
	}

	srcs := make([]any, 0, len(s.Sources))
	for _, src := range s.Sources {
		switch {
		case src.App != "":
			srcs = append(srcs, map[string]any{"app": src.App})
		case src.CSV != "":
			srcs = append(srcs, map[string]any{"csv": src.CSV})
		default:
			path := src.Trace
			if baseDir != "" && !filepath.IsAbs(path) {
				path = filepath.Join(baseDir, path)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return nil, fmt.Errorf("scenario: inlining trace source: %w", err)
			}
			srcs = append(srcs, map[string]any{"csv": string(data)})
		}
	}
	doc["sources"] = srcs

	if len(s.Geometries) > 0 {
		geoms := make([]string, len(s.Geometries))
		for i, g := range s.Geometries {
			geoms[i] = cliopts.FormatGeometry(g)
		}
		doc["geometries"] = geoms
	}
	if len(s.Noise) > 0 {
		entries := make([]string, len(s.Noise))
		for i, n := range s.Noise {
			entries[i] = n.String()
		}
		doc["noise"] = entries
	}
	if len(s.Fabrics) > 0 {
		entries := make([]string, len(s.Fabrics))
		for i, f := range s.Fabrics {
			entries[i] = f.String()
		}
		doc["fabrics"] = entries
	}
	if len(s.DLB) > 0 {
		entries := make([]string, len(s.DLB))
		for i, d := range s.DLB {
			entries[i] = d.String()
		}
		doc["dlb"] = entries
	}
	if len(s.BinTimeoutsSec) > 0 {
		entries := make([]string, len(s.BinTimeoutsSec))
		for i, t := range s.BinTimeoutsSec {
			entries[i] = msText(t)
		}
		doc["bin_timeouts_ms"] = entries
	}
	if s.Alpha != 0 {
		doc["alpha"] = fnum(s.Alpha)
	}
	if s.LaggardThresholdSec != 0 {
		doc["laggard_ms"] = msText(s.LaggardThresholdSec)
	}
	if s.BytesPerPartition != 0 {
		doc["part_bytes"] = fnum(float64(s.BytesPerPartition))
	}
	return json.Marshal(doc)
}

// msText renders a duration in seconds as the millisecond text Parse
// reads back to exactly sec. Parse scales by 1e-3, which rounds, so
// sec*1e3 itself may come back as another float (71 ms is 0.071000…01 s,
// which renders as 71.00000000000001 ms): of the floats within four ulps
// of it that do come back as sec, the one with the shortest text wins.
func msText(sec float64) string {
	ms := sec * 1e3
	for i := 0; i < 4; i++ {
		ms = math.Nextafter(ms, math.Inf(-1))
	}
	best := fnum(sec * 1e3)
	found := false
	for i := 0; i <= 8; i++ {
		if text := fnum(ms); ms*1e-3 == sec && (!found || len(text) < len(best)) {
			best, found = text, true
		}
		ms = math.Nextafter(ms, math.Inf(1))
	}
	return best
}
