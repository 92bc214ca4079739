// Command repro regenerates every table and figure of the paper's
// evaluation in one run, rendering paper-vs-measured values — the source
// of EXPERIMENTS.md.
//
// Examples:
//
//	repro                       # full paper geometry (10x8x200x48)
//	repro -geometry quick       # reduced geometry (3x4x60x48) for a fast look
//	repro -geometry paper@7     # paper geometry, master seed 7
//	repro -exp table1           # a single experiment, by name
//	repro -exp E3               # the same, by its DESIGN.md index ID
//	repro -figdir out/          # also dump figure CSVs for plotting
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"earlybird/internal/cliopts"
	"earlybird/internal/cluster"
	"earlybird/internal/engine"
	"earlybird/internal/experiments"
	"earlybird/internal/stats"
	"earlybird/internal/stats/normality"
)

func main() {
	if err := runMain(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
}

// runMain parses flags, builds the suite and renders the experiment.
func runMain(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		geometry = cliopts.Geometry(fs, cluster.DefaultConfig())
		policy   = cliopts.DLB(fs)
		exp      = fs.String("exp", "all", "experiment: all | an index ID E1-E15 (DESIGN.md) | table1 | fig3 | fig4 | fig5 | fig6 | fig7 | fig8 | fig9 | metrics | overlap | strategies | dlb | ablation | distsweep | campaign")
		figdir   = fs.String("figdir", "", "directory to write figure CSV data into")
		workers  = fs.Int("workers", 0, "max concurrently executing studies (0 = one per CPU)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h/-help: usage was printed, not a failure
		}
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	cfg := experiments.Default()
	cfg.Cluster = geometry.Config
	// The base rebalancing policy every suite dataset is generated under.
	// E15 crosses all policies regardless, from this policy's baseline.
	cfg.DLB = policy.Spec
	eng := engine.New(*workers)
	suite := experiments.NewSuiteOn(cfg, eng)
	return run(suite, *exp, *figdir, stdout)
}

// runCampaign demonstrates the campaign engine: the three paper apps at
// the configured and quick geometries — plus one deliberate duplicate of
// every spec — fanned out concurrently, duplicates served from the
// dataset cache, results printed in spec order.
func runCampaign(s *experiments.Suite, w io.Writer) error {
	geoms := []cluster.Config{s.Config().Cluster, experiments.Quick().Cluster}
	geoms[1].Seed = geoms[0].Seed
	var specs []engine.Spec
	for _, app := range experiments.AppNames {
		for _, g := range geoms {
			specs = append(specs, engine.Spec{App: app, Geometry: g})
		}
	}
	specs = append(specs, specs...) // duplicates: must not re-execute

	eng := s.Engine()
	results, err := eng.Run(engine.Campaign{Specs: specs})
	for _, r := range results {
		if r.Err != nil {
			fmt.Fprintf(w, "spec %2d %-8s FAILED: %v\n", r.Index, r.Spec.App, r.Err)
			continue
		}
		g := r.Spec.Geometry
		fmt.Fprintf(w, "spec %2d %-8s %dx%dx%dx%d cache=%-5v median %6.2f ms -> %s\n",
			r.Index, r.Spec.App, g.Trials, g.Ranks, g.Iterations, g.Threads,
			r.CacheHit, 1e3*r.Metrics.MeanMedianSec, r.Assessment.Recommendation)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%d specs, %d executions, %d cached datasets\n",
		len(specs), eng.Executions(), eng.CachedDatasets())
	return nil
}

// experimentIDs maps DESIGN.md's experiment index to the -exp names
// that render each entry; E1 and E2 are names of their own, and E13 is
// a property test rather than a report.
var experimentIDs = map[string]string{
	"E3": "table1", "E4": "fig3", "E5": "fig4", "E6": "fig5", "E7": "fig6", "E8": "fig7",
	"E9": "fig8", "E10": "fig9", "E11": "metrics", "E12": "overlap", "E14": "strategies", "E15": "dlb",
}

// errE13 answers -exp E13 with the tests that check it.
var errE13 = errors.New("E13 (compute time cancels per-core clock offsets) is a property test, not a report: " +
	"go test -run 'TestComputeTimeCancelsSkew|TestRecorderCancelsCoreSkew' ./internal/simclock ./internal/trace")

func run(s *experiments.Suite, exp, figdir string, w io.Writer) error {
	if name, ok := experimentIDs[exp]; ok {
		exp = name
	}
	switch exp {
	case "all":
		s.WriteReport(w)
	case "E1":
		for _, app := range experiments.AppNames {
			res := s.E1AppLevelNormality()[app]
			for _, t := range normality.Tests {
				fmt.Fprintf(w, "%s/%s: stat %.4f p %.3g reject=%v\n", app, t, res[t].Statistic, res[t].PValue, res[t].RejectNormal)
			}
		}
	case "E2":
		for _, app := range experiments.AppNames {
			sum := s.E2AppIterationNormality()[app]
			for _, t := range normality.Tests {
				fmt.Fprintf(w, "%s/%s: %d/%d iterations pass\n", app, t, sum.Passed[t], sum.Total)
			}
		}
	case "table1":
		for _, row := range s.E3Table1() {
			fmt.Fprintln(w, row)
		}
	case "fig3":
		for _, app := range experiments.AppNames {
			h := s.E4Fig3Histograms()[app]
			fmt.Fprintf(w, "%s: peak %.2f ms over %d samples\n", app, 1e3*h.Peak(), h.Total)
		}
	case "fig4":
		fmt.Fprint(w, s.E5Fig4MiniFEPercentiles().CSV(1e-3))
	case "fig5":
		r := s.E6Fig5MiniFELaggards()
		fmt.Fprintf(w, "laggard fraction %.3f (paper 0.224)\n", r.LaggardFraction)
		fmt.Fprintln(w, "-- no laggard --")
		fmt.Fprint(w, r.NoLaggard.Render(30, 1e-3, "ms"))
		fmt.Fprintln(w, "-- with laggard --")
		fmt.Fprint(w, r.WithLaggard.Render(30, 1e-3, "ms"))
	case "fig6":
		r := s.E7Fig6MiniMDPercentiles()
		fmt.Fprintf(w, "phase1 IQR mean/max %.2f/%.2f ms, phase2 %.2f/%.2f ms\n",
			1e3*r.Phase1IQRMean, 1e3*r.Phase1IQRMax, 1e3*r.Phase2IQRMean, 1e3*r.Phase2IQRMax)
		fmt.Fprint(w, r.Series.CSV(1e-3))
	case "fig7":
		r := s.E8Fig7MiniMDLaggards()
		fmt.Fprintf(w, "phase-2 laggard fraction %.3f (paper 0.048)\n", r.LaggardFraction)
		fmt.Fprintln(w, "-- phase 1 --")
		fmt.Fprint(w, r.Phase1.Render(30, 1e-3, "ms"))
		fmt.Fprintln(w, "-- no laggard --")
		fmt.Fprint(w, r.NoLaggard.Render(30, 1e-3, "ms"))
		fmt.Fprintln(w, "-- with laggard --")
		fmt.Fprint(w, r.WithLaggard.Render(30, 1e-3, "ms"))
	case "fig8":
		fmt.Fprint(w, s.E9Fig8MiniQMCPercentiles().CSV(1e-3))
	case "fig9":
		fmt.Fprint(w, s.E10Fig9MiniQMCHistogram().Render(40, 1e-3, "ms"))
	case "metrics":
		for _, app := range experiments.AppNames {
			fmt.Fprintln(w, s.E11Metrics()[app])
		}
	case "overlap":
		for _, app := range experiments.AppNames {
			fmt.Fprintf(w, "%s:\n", app)
			for _, r := range s.E12Overlap()[app] {
				fmt.Fprintf(w, "  %s\n", r)
			}
		}
	case "E13":
		return errE13
	case "strategies", "frontier":
		s.WriteStrategyFrontier(w)
	case "dlb":
		s.WriteDLBReport(w)
	case "ablation":
		s.WriteAblationReport(w)
	case "distsweep":
		s.WriteDistSweepReport(w, experiments.DefaultDistSweep())
	case "campaign":
		return runCampaign(s, w)
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}

	if figdir != "" {
		return dumpFigures(s, figdir, w)
	}
	return nil
}

// dumpFigures writes plotting-ready CSVs for every figure.
func dumpFigures(s *experiments.Suite, dir string, w io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name, content string) error {
		return os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644)
	}
	for _, app := range experiments.AppNames {
		h := s.E4Fig3Histograms()[app]
		if err := write(fmt.Sprintf("fig3_%s.csv", app), h.CSV(1e-3)); err != nil {
			return err
		}
	}
	if err := write("fig4_minife_percentiles.csv", s.E5Fig4MiniFEPercentiles().CSV(1e-3)); err != nil {
		return err
	}
	f5 := s.E6Fig5MiniFELaggards()
	if err := writeHist(write, "fig5a_no_laggard.csv", f5.NoLaggard); err != nil {
		return err
	}
	if err := writeHist(write, "fig5b_laggard.csv", f5.WithLaggard); err != nil {
		return err
	}
	if err := write("fig6_minimd_percentiles.csv", s.E7Fig6MiniMDPercentiles().Series.CSV(1e-3)); err != nil {
		return err
	}
	f7 := s.E8Fig7MiniMDLaggards()
	if err := writeHist(write, "fig7a_phase1.csv", f7.Phase1); err != nil {
		return err
	}
	if err := writeHist(write, "fig7b_no_laggard.csv", f7.NoLaggard); err != nil {
		return err
	}
	if err := writeHist(write, "fig7c_laggard.csv", f7.WithLaggard); err != nil {
		return err
	}
	if err := write("fig8_miniqmc_percentiles.csv", s.E9Fig8MiniQMCPercentiles().CSV(1e-3)); err != nil {
		return err
	}
	if err := writeHist(write, "fig9_miniqmc_process.csv", s.E10Fig9MiniQMCHistogram()); err != nil {
		return err
	}
	fmt.Fprintf(w, "figure data written to %s\n", dir)
	return nil
}

func writeHist(write func(string, string) error, name string, h *stats.Histogram) error {
	if h == nil {
		return nil
	}
	return write(name, h.CSV(1e-3))
}
