// Command analyze runs the paper's Section 4 analysis pipeline over
// datasets collected by threadtime: normality at the three aggregation
// levels, laggard classification, reclaimable-time metrics, percentile
// series and histograms.
//
// With several input files the datasets are analysed concurrently as one
// campaign on the engine, and a summary line plus feasibility verdict is
// printed per dataset as it completes. The detailed single-dataset
// outputs (-percentiles, -hist, -timeline) require exactly one input.
//
// With -app (and no input files) the dataset is not loaded but generated
// and analysed as a stream: per-iteration sample blocks feed online
// accumulators and are discarded, so geometries far beyond the paper's
// run in bounded memory (-geometry sizes the study).
//
// Examples:
//
//	threadtime -app minife -o fe.json
//	analyze -in fe.json
//	analyze -in fe.json -percentiles fe_percentiles.csv -hist 10us
//	analyze fe.json md.json qmc.json        # concurrent campaign
//	analyze -app minife -geometry 10x8x20000x48   # streaming, bounded memory
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"earlybird/internal/analysis"
	"earlybird/internal/cliopts"
	"earlybird/internal/cluster"
	"earlybird/internal/core"
	"earlybird/internal/engine"
	"earlybird/internal/stats/normality"
	"earlybird/internal/trace"
)

// binWidths maps human-friendly bin width names onto seconds.
var binWidths = map[string]float64{
	"10us": 10e-6,
	"50us": 50e-6,
	"1ms":  1e-3,
}

func main() {
	if err := runMain(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "analyze:", err)
		os.Exit(1)
	}
}

// runMain parses flags and routes to the campaign or streaming path.
func runMain(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in          = fs.String("in", "", "input dataset (JSON from threadtime); more may follow as arguments")
		alpha       = fs.Float64("alpha", normality.DefaultAlpha, "normality significance level")
		laggardMs   = fs.Float64("laggard-ms", 1.0, "laggard threshold in milliseconds")
		workers     = fs.Int("workers", 0, "max concurrently analysed datasets (0 = one per CPU)")
		percentiles = fs.String("percentiles", "", "write per-iteration percentile CSV to this file (single input)")
		histWidth   = fs.String("hist", "", "render application histogram with this bin width (10us|50us|1ms; single input)")
		timeline    = fs.String("timeline", "", "write per-iteration laggard-count CSV to this file (single input)")
		app         = cliopts.App(fs, "")
		geometry    = cliopts.Geometry(fs, cluster.DefaultConfig())
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h/-help: usage was printed, not a failure
		}
		return err
	}

	files := fs.Args()
	if *in != "" {
		files = append([]string{*in}, files...)
	}
	if app.Name == "" && geometry.IsSet {
		return fmt.Errorf("-geometry sizes a generated study and needs -app; a dataset file is already sized")
	}
	if app.Name != "" {
		switch {
		case len(files) > 0:
			return fmt.Errorf("-app streams a generated study and cannot be combined with input files")
		case *percentiles != "" || *histWidth != "" || *timeline != "":
			return fmt.Errorf("-percentiles, -hist and -timeline need a materialised dataset and cannot be combined with -app")
		}
		return runStreaming(stdout, app.Name, geometry.Config, *alpha, *laggardMs*1e-3)
	}
	return run(stdout, files, *alpha, *laggardMs*1e-3, *workers, *percentiles, *histWidth, *timeline)
}

// runStreaming generates the model study online and prints the streaming
// analysis; the dataset is never materialised.
func runStreaming(w io.Writer, app string, geom cluster.Config, alpha, laggardSec float64) error {
	fmt.Fprintf(w, "streaming %s: %d trials x %d ranks x %d iterations x %d threads (%d samples, never materialised)\n",
		app, geom.Trials, geom.Ranks, geom.Iterations, geom.Threads,
		geom.Trials*geom.Ranks*geom.Iterations*geom.Threads)
	res, err := core.StreamStudy(core.Options{
		App:      app,
		Geometry: geom,
		Policy:   core.PolicySpec{Alpha: alpha, LaggardThresholdSec: laggardSec},
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, res.Metrics)
	fmt.Fprintln(w, res.Table1)
	s := res.Summary()
	fmt.Fprintf(w, "summary: mean %.3f ms, stddev %.3f ms, p5 %.3f ms, median %.3f ms, p95 %.3f ms, max %.3f ms\n",
		1e3*s.Mean, 1e3*s.StdDev, 1e3*s.P5, 1e3*s.Median, 1e3*s.P95, 1e3*s.Max)
	return nil
}

func run(w io.Writer, files []string, alpha, laggardSec float64, workers int, percentilesOut, histWidth, timelineOut string) error {
	if len(files) == 0 {
		return fmt.Errorf("at least one input file is required (-in or arguments)")
	}
	if len(files) > 1 && (percentilesOut != "" || histWidth != "" || timelineOut != "") {
		return fmt.Errorf("-percentiles, -hist and -timeline need exactly one input")
	}

	specs := make([]engine.Spec, 0, len(files))
	for _, name := range files {
		ds, err := readDataset(name)
		if err != nil {
			return err
		}
		specs = append(specs, engine.Spec{
			Dataset:             ds,
			Alpha:               alpha,
			LaggardThresholdSec: laggardSec,
		})
	}

	eng := engine.New(workers)
	// Per-spec failures live on the results; render the datasets that
	// succeeded before reporting the joined error.
	results, err := eng.Run(engine.Campaign{Specs: specs})
	if len(files) == 1 {
		if err != nil {
			return fmt.Errorf("%s: %w", files[0], results[0].Err)
		}
		return renderDetailed(w, results[0], alpha, laggardSec, percentilesOut, histWidth, timelineOut)
	}
	for i, r := range results {
		if r.Err != nil {
			fmt.Fprintf(w, "%s FAILED: %v\n", files[i], r.Err)
			continue
		}
		ds := r.Study.Dataset()
		fmt.Fprintf(w, "%s — %s: %d trials x %d ranks x %d iterations x %d threads\n",
			files[i], ds.App, ds.Trials, ds.Ranks, ds.Iterations, ds.Threads)
		fmt.Fprintf(w, "  %v\n  %v\n", r.Metrics, r.Table1)
		fmt.Fprintf(w, "  %s", r.Assessment)
	}
	return err
}

func readDataset(name string) (*trace.Dataset, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.ReadJSON(f)
}

func renderDetailed(w io.Writer, r engine.Result, alpha, laggardSec float64, percentilesOut, histWidth, timelineOut string) error {
	ds := r.Study.Dataset()
	fmt.Fprintf(w, "dataset %s: %d trials x %d ranks x %d iterations x %d threads (%d samples)\n",
		ds.App, ds.Trials, ds.Ranks, ds.Iterations, ds.Threads, ds.NumSamples())

	fmt.Fprintln(w, "\n-- application-level normality --")
	for _, res := range analysis.ApplicationLevelNormality(ds, alpha) {
		fmt.Fprintf(w, "%-18s stat %10.4f  p %.3g  reject=%v\n", res.Test, res.Statistic, res.PValue, res.RejectNormal)
	}

	fmt.Fprintln(w, "\n-- application-iteration normality --")
	ai := analysis.ApplicationIterationNormality(ds, alpha)
	for _, t := range normality.Tests {
		fmt.Fprintf(w, "%-18s passed %d/%d iterations\n", t, ai.Passed[t], ai.Total)
	}

	fmt.Fprintln(w, "\n-- process-iteration normality (Table 1 row) --")
	fmt.Fprintln(w, r.Table1)

	fmt.Fprintln(w, "\n-- laggards and idle metrics --")
	st := r.Study.Laggards()
	fmt.Fprintf(w, "laggard iterations: %d/%d (%.1f%%), mean magnitude %.2f ms\n",
		st.WithLaggard, st.Total, 100*st.Fraction, 1e3*st.MeanMagnitudeSec)
	fmt.Fprintln(w, r.Metrics)

	fmt.Fprintln(w, "\n-- early-bird feasibility --")
	fmt.Fprint(w, r.Assessment)

	if percentilesOut != "" {
		ps := r.Study.Percentiles()
		if err := os.WriteFile(percentilesOut, []byte(ps.CSV(1e-3)), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "\npercentile series written to %s (milliseconds)\n", percentilesOut)
	}

	if timelineOut != "" {
		tl := analysis.NewLaggardTimeline(ds, laggardSec)
		if err := os.WriteFile(timelineOut, []byte(tl.CSV()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nlaggard timeline written to %s (%d/%d iterations active, burstiness %.2f)\n",
			timelineOut, tl.ActiveIterations(), ds.Iterations, tl.Burstiness())
	}

	if histWidth != "" {
		width, ok := binWidths[histWidth]
		if !ok {
			names := make([]string, 0, len(binWidths))
			for n := range binWidths {
				names = append(names, n)
			}
			sort.Strings(names)
			return fmt.Errorf("unknown bin width %q (want one of %v)", histWidth, names)
		}
		h := r.Study.Histogram(width)
		fmt.Fprintf(w, "\n-- application histogram (%s bins, peak %.2f ms) --\n", histWidth, 1e3*h.Peak())
		fmt.Fprint(w, h.Render(40, 1e-3, "ms"))
	}
	return nil
}
