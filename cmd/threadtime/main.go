// Command threadtime collects a thread-timing study — the data-gathering
// half of the paper's methodology (Section 3).
//
// By default it runs the calibrated stochastic model of an application at
// the paper's geometry and writes the dataset as JSON or CSV. With -live
// it instead executes the real instrumented compute kernels
// (internal/miniapps) on this host's clock — useful for studying the
// instrumentation itself, not for reproducing the paper's numbers.
//
// Examples:
//
//	threadtime -app minife -o minife.json
//	threadtime -app minimd -geometry 3x8x50x48 -format csv -o md.csv
//	threadtime -app miniqmc -live -geometry 1x1x20x8 -o live.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"earlybird/internal/cliopts"
	"earlybird/internal/cluster"
	"earlybird/internal/miniapps"
	"earlybird/internal/omp"
	"earlybird/internal/simclock"
	"earlybird/internal/trace"
	"earlybird/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "threadtime:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("threadtime", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		app      = cliopts.App(fs, "minife")
		geometry = cliopts.Geometry(fs, cluster.DefaultConfig())
		live     = fs.Bool("live", false, "run real instrumented kernels instead of the calibrated model")
		format   = fs.String("format", "json", "output format: json | csv")
		out      = fs.String("o", "", "output file (default stdout)")
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

	var ds *trace.Dataset
	if *live {
		ds = runLive(app.Name, geometry.Config)
	} else {
		m, err := workload.ByName(app.Name)
		if err != nil {
			return err
		}
		if ds, err = cluster.Run(m, geometry.Config); err != nil {
			return err
		}
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	switch *format {
	case "json":
		return ds.WriteJSON(w)
	case "csv":
		return ds.WriteCSV(w)
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
}

// runLive runs the instrumented kernels of app (a name -app accepted)
// at geom on this host's clock.
func runLive(app string, geom cluster.Config) *trace.Dataset {
	pool := omp.NewPool(geom.Threads)
	defer pool.Close()
	clock := simclock.NewReal()
	seed := geom.Seed
	var factory func(trial, rank int) miniapps.App
	switch app {
	case "minife":
		factory = func(trial, rank int) miniapps.App { return miniapps.NewMiniFE(32, 32, 32) }
	case "minimd":
		factory = func(trial, rank int) miniapps.App {
			return miniapps.NewMiniMD(10, 4, seed+uint64(trial*1000+rank))
		}
	default:
		factory = func(trial, rank int) miniapps.App {
			return miniapps.NewMiniQMC(12, 400, seed+uint64(trial*1000+rank))
		}
	}
	return miniapps.RunStudy(factory, pool, clock, geom.Trials, geom.Ranks, geom.Iterations)
}
