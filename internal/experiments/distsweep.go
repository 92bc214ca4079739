package experiments

import (
	"fmt"
	"io"

	"earlybird/internal/cluster"
	"earlybird/internal/partcomm"
	"earlybird/internal/workload"
)

// The distribution sweep reconstructs the synthetic-arrival baselines of
// the related work: Temucin et al. micro-benchmark partitioned
// communication under parameterised distributions (including normal),
// and the original Finepoints analysis assumes a single laggard thread.
// Sweeping those families through the same delivery-strategy simulator
// connects the paper's *measured* distributions to the literature's
// *assumed* ones: it shows where each assumption would over- or
// under-predict early-bird benefit relative to the real applications.

// DistPoint is one synthetic-distribution evaluation.
type DistPoint struct {
	// Label describes the distribution (family and parameter).
	Label string
	// ParamSec is the swept parameter (sigma, lag, or half-width).
	ParamSec float64
	// FineOverlapSec and BinnedOverlapSec are the strategies' mean
	// overlaps vs bulk; PotentialSec is the mean reclaimable time per
	// thread (the paper's idle metric); WindowSec is the mean arrival
	// window (max - min), the hard upper bound on hideable transfer time.
	FineOverlapSec   float64
	BinnedOverlapSec float64
	PotentialSec     float64
	WindowSec        float64
}

// DistSweepConfig parameterises the sweep.
type DistSweepConfig struct {
	// MedianSec centres every synthetic distribution (default: the
	// MiniMD-like 25 ms).
	MedianSec float64
	// Geometry for the synthetic studies (small by default).
	Geometry cluster.Config
	// NormalSigmas, LaggardLags and UniformHalfWidths select the swept
	// parameters (defaults provided).
	NormalSigmas      []float64
	LaggardLags       []float64
	UniformHalfWidths []float64
}

// DefaultDistSweep returns the default sweep configuration.
func DefaultDistSweep() DistSweepConfig {
	return DistSweepConfig{
		MedianSec: 25e-3,
		Geometry:  cluster.Config{Trials: 2, Ranks: 4, Iterations: 40, Threads: 48, Seed: 17},
		// Sigma from MiniMD-tight to MiniQMC-wide.
		NormalSigmas: []float64{0.1e-3, 1e-3, 3e-3, 6.7e-3},
		// Single-laggard magnitudes from sub-threshold to dominant.
		LaggardLags: []float64{0.5e-3, 2e-3, 8e-3, 25e-3},
		// Uniform widths bracketing MiniMD phase one.
		UniformHalfWidths: []float64{0.5e-3, 1e-3, 5e-3},
	}
}

// DistSweep evaluates the delivery strategies over each synthetic family
// and returns the points grouped by family name ("normal",
// "single-laggard", "uniform").
func (s *Suite) DistSweep(cfg DistSweepConfig) map[string][]DistPoint {
	if cfg.MedianSec == 0 {
		cfg = DefaultDistSweep()
	}
	strategies := []partcomm.Strategy{
		partcomm.FineGrained{},
		partcomm.Binned{TimeoutSec: s.cfg.BinTimeoutSec},
	}
	// Each parameterisation carries its label as the model name: the
	// engine's dataset cache is keyed by (name, geometry, seed), so
	// distinct sweep points get distinct cache entries while repeated
	// sweeps over one suite are served from cache.
	evalModel := func(m workload.Model, param float64, label string) DistPoint {
		d, _, err := s.eng.Dataset(m, cfg.Geometry)
		if err != nil {
			panic(fmt.Sprintf("experiments: distsweep %s: %v", label, err))
		}
		res := partcomm.EvaluateStream(d.Cursor(), s.cfg.BytesPerPartition, s.cfg.Fabric, strategies)
		potential, window := 0.0, 0.0
		n := 0
		d.EachProcessIteration(func(_, _, _ int, xs []float64) {
			potential += partcomm.PotentialOverlap(xs)
			min, max := xs[0], xs[0]
			for _, x := range xs {
				if x < min {
					min = x
				}
				if x > max {
					max = x
				}
			}
			window += max - min
			n++
		})
		if n > 0 {
			potential /= float64(n)
			window /= float64(n)
		}
		return DistPoint{
			Label:            label,
			ParamSec:         param,
			FineOverlapSec:   res[0].MeanOverlapSec,
			BinnedOverlapSec: res[1].MeanOverlapSec,
			PotentialSec:     potential,
			WindowSec:        window,
		}
	}

	// Model names are cache keys and carry the full-precision parameters;
	// the rounded human-readable labels are display-only (two sweep points
	// may round to the same label but must never share a dataset).
	out := map[string][]DistPoint{}
	for _, sigma := range cfg.NormalSigmas {
		name := fmt.Sprintf("normal(median=%g,sigma=%g)", cfg.MedianSec, sigma)
		m := &workload.NormalModel{AppName: name, MedianSec: cfg.MedianSec, SigmaSec: sigma}
		out["normal"] = append(out["normal"],
			evalModel(m, sigma, fmt.Sprintf("normal(sigma=%.2gms)", 1e3*sigma)))
	}
	for _, lag := range cfg.LaggardLags {
		name := fmt.Sprintf("laggard(median=%g,lag=%g)", cfg.MedianSec, lag)
		m := &workload.SingleLaggardModel{AppName: name, MedianSec: cfg.MedianSec, JitterSec: 0.05e-3, LagSec: lag}
		out["single-laggard"] = append(out["single-laggard"],
			evalModel(m, lag, fmt.Sprintf("laggard(+%.2gms)", 1e3*lag)))
	}
	for _, hw := range cfg.UniformHalfWidths {
		name := fmt.Sprintf("uniform(median=%g,hw=%g)", cfg.MedianSec, hw)
		m := &workload.UniformModel{AppName: name, MedianSec: cfg.MedianSec, HalfWidthSec: hw}
		out["uniform"] = append(out["uniform"],
			evalModel(m, hw, fmt.Sprintf("uniform(±%.2gms)", 1e3*hw)))
	}
	return out
}

// WriteDistSweepReport renders the sweep.
func (s *Suite) WriteDistSweepReport(w io.Writer, cfg DistSweepConfig) {
	sweep := s.DistSweep(cfg)
	fmt.Fprintln(w, "== D1: delivery-strategy overlap under the literature's synthetic arrival distributions ==")
	fmt.Fprintln(w, "(fine-grained / binned overlap vs bulk; potential = reclaimable bound per thread)")
	for _, family := range sortedKeys(sweep) {
		fmt.Fprintf(w, "%s:\n", family)
		for _, p := range sweep[family] {
			fmt.Fprintf(w, "  %-22s fine %8.3f ms  binned %8.3f ms  potential %8.3f ms  window %8.3f ms\n",
				p.Label, 1e3*p.FineOverlapSec, 1e3*p.BinnedOverlapSec, 1e3*p.PotentialSec, 1e3*p.WindowSec)
		}
	}
}
