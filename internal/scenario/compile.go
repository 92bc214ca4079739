package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"earlybird/internal/cliopts"
	"earlybird/internal/cluster"
	"earlybird/internal/dlb"
	"earlybird/internal/engine"
	"earlybird/internal/partcomm"
	"earlybird/internal/trace"
	"earlybird/internal/workload"
)

// Cell is one compiled point of the campaign: the declared coordinates
// plus the engine spec they compile to. The coordinates are kept so the
// verifier (and the plan rendering) can cross-check the spec against
// what the scenario declared, not against the compiler's own arithmetic.
type Cell struct {
	// Index is the cell's position in Compiled.Cells and in the campaign.
	Index int
	// Source identifies the workload; SourceKey is its canonical name.
	Source    Source
	SourceKey string
	// Geometry is the declared geometry ("" for trace sources, which
	// carry their own shape).
	Geometry string
	// Noise is the canonical noise entry ("" for trace sources).
	Noise string
	// DLB is the canonical policy name ("" for trace sources).
	DLB string
	// Fabric is the canonical fabric entry.
	Fabric string
	// BinTimeoutSec is the declared delivery timeout.
	BinTimeoutSec float64
	// Spec is the compiled engine spec, unresolved (defaults left to
	// engine.Resolve so compiled specs coalesce with hand-written ones).
	Spec engine.Spec
}

// Compiled is the campaign a scenario compiles to.
type Compiled struct {
	Spec  *Spec
	Cells []Cell
}

// CompileOptions parameterises compilation. The zero value reads trace
// sources from the filesystem.
type CompileOptions struct {
	// LoadTrace loads a trace source's dataset. Nil means: parse
	// Source.CSV inline, else read Source.Trace from disk. The serve
	// layer substitutes a loader that rejects server-side paths.
	LoadTrace func(Source) (*trace.Dataset, error)
	// BaseDir anchors relative Source.Trace paths (the default loader
	// only); the CLI passes the scenario file's directory so a scenario
	// can name its trace relative to itself. Empty means the process's
	// working directory.
	BaseDir string
}

// loadTrace is the default loader.
func (opts CompileOptions) loadTrace(src Source) (*trace.Dataset, error) {
	if src.CSV != "" {
		return trace.ReadCSV(strings.NewReader(src.CSV))
	}
	path := src.Trace
	if opts.BaseDir != "" && !filepath.IsAbs(path) {
		path = filepath.Join(opts.BaseDir, path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: trace source: %w", err)
	}
	defer f.Close()
	ds, err := trace.ReadCSV(f)
	if err != nil {
		return nil, fmt.Errorf("scenario: trace source %s: %w", src.Trace, err)
	}
	return ds, nil
}

// axes returns the spec's axes with empty ones defaulted: one
// paper-geometry point, no noise, the Omni-Path fabric, the static
// policy, the paper's 1 ms delivery timeout.
func (s *Spec) axes() (geoms []cluster.Config, noises []NoiseSpec, dlbs []dlb.Spec, fabrics []FabricSpec, timeouts []float64) {
	geoms = s.Geometries
	if len(geoms) == 0 {
		geoms = []cluster.Config{cluster.DefaultConfig()}
	}
	noises = s.Noise
	if len(noises) == 0 {
		noises = []NoiseSpec{{}}
	}
	dlbs = s.DLB
	if len(dlbs) == 0 {
		dlbs = []dlb.Spec{{}}
	}
	fabrics = s.Fabrics
	if len(fabrics) == 0 {
		fabrics = []FabricSpec{{}}
	}
	timeouts = s.BinTimeoutsSec
	if len(timeouts) == 0 {
		timeouts = []float64{1e-3}
	}
	return
}

// Compile validates the spec and expands it into the campaign cells of
// the declared cross-product, in deterministic order: source-major, then
// geometry, noise, dlb, fabric, timeout. Application sources cross every
// axis; trace sources are pre-collected datasets, so they cross only
// fabrics x timeouts (see the package comment's coverage contract).
func (s *Spec) Compile(opts CompileOptions) (*Compiled, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	load := opts.LoadTrace
	if load == nil {
		load = opts.loadTrace
	}
	geoms, noises, dlbs, fabrics, timeouts := s.axes()

	var cells []Cell
	add := func(c Cell) {
		c.Index = len(cells)
		cells = append(cells, c)
	}
	for si, src := range s.Sources {
		if src.IsApp() {
			if _, err := workload.ByName(src.App); err != nil {
				return nil, fmt.Errorf("scenario: source %s: %w", src.key(si), err)
			}
			for _, g := range geoms {
				for _, n := range noises {
					for _, d := range dlbs {
						for _, f := range fabrics {
							for _, t := range timeouts {
								sp := engine.Spec{
									Geometry:            g,
									Alpha:               s.Alpha,
									LaggardThresholdSec: s.LaggardThresholdSec,
									BytesPerPartition:   s.BytesPerPartition,
									Fabric:              f.Effective(g.Ranks),
									BinTimeoutSec:       t,
									DLB:                 d,
								}
								if n.IsNone() {
									// Bare app specs stay wire-expressible:
									// the fleet can dispatch them by name.
									sp.App = src.App
								} else {
									base, _ := workload.ByName(src.App)
									sp.Model = &workload.Noisy{
										Base:   base,
										Noise:  n.Model(),
										Suffix: "+" + n.String(),
									}
								}
								add(Cell{
									Source: src, SourceKey: src.key(si),
									Geometry: cliopts.FormatGeometry(g),
									Noise:    n.String(), DLB: d.String(),
									Fabric: f.String(), BinTimeoutSec: t,
									Spec: sp,
								})
							}
						}
					}
				}
			}
			continue
		}
		ds, err := load(src)
		if err != nil {
			return nil, err
		}
		for _, f := range fabrics {
			for _, t := range timeouts {
				if err := partcomm.CheckBinSpan(ds, t); err != nil {
					return nil, fmt.Errorf("scenario: source %s: %w", src.key(si), err)
				}
				add(Cell{
					Source: src, SourceKey: src.key(si),
					Fabric: f.String(), BinTimeoutSec: t,
					Spec: engine.Spec{
						Dataset:             ds,
						Alpha:               s.Alpha,
						LaggardThresholdSec: s.LaggardThresholdSec,
						BytesPerPartition:   s.BytesPerPartition,
						Fabric:              f.Effective(ds.Ranks),
						BinTimeoutSec:       t,
					},
				})
			}
		}
	}
	return &Compiled{Spec: s, Cells: cells}, nil
}

// EngineSpecs returns the cells' engine specs in campaign order.
func (c *Compiled) EngineSpecs() []engine.Spec {
	specs := make([]engine.Spec, len(c.Cells))
	for i, cell := range c.Cells {
		specs[i] = cell.Spec
	}
	return specs
}

// coord renders a cell's declared coordinates as the coverage key the
// verifier enumerates; "-" marks axes that do not apply to the source.
func (c Cell) coord() string {
	geom, noiseStr, dlbStr := c.Geometry, c.Noise, c.DLB
	if !c.Source.IsApp() {
		geom, noiseStr, dlbStr = "-", "-", "-"
	}
	return strings.Join([]string{
		c.SourceKey, geom, noiseStr, dlbStr, c.Fabric, fnum(c.BinTimeoutSec),
	}, " | ")
}

// Plan renders the compiled campaign as deterministic text: a header
// with the scenario name and cell count, then one line per cell in
// campaign order. It is the golden-file form and the -scenario-check
// output — stable across runs by construction, because the compiler's
// expansion order is deterministic.
func (c *Compiled) Plan() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s: %d cells\n", c.Spec.Name, len(c.Cells))
	for _, cell := range c.Cells {
		fmt.Fprintf(&b, "%3d  %s\n", cell.Index, cell.coord())
	}
	return b.String()
}

// Summary condenses the campaign for logs: cell count plus per-axis
// cardinalities actually used.
func (c *Compiled) Summary() string {
	srcs := map[string]bool{}
	for _, cell := range c.Cells {
		srcs[cell.SourceKey] = true
	}
	names := make([]string, 0, len(srcs))
	for k := range srcs {
		names = append(names, k)
	}
	sort.Strings(names)
	return fmt.Sprintf("%d cells over %d sources (%s)", len(c.Cells), len(names), strings.Join(names, ", "))
}
