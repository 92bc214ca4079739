// Command earlybird assesses the feasibility of early-bird message
// delivery for an application's thread-arrival behaviour — the question
// the paper's title poses (Figures 1-2, Section 5).
//
// It evaluates three delivery strategies over the arrival data (bulk
// baseline, fine-grained per-partition early-bird, and timeout-binned
// aggregation) on an alpha-beta fabric model, and emits the paper-style
// recommendation.
//
// Examples:
//
//	earlybird -app miniqmc
//	earlybird -app minife -geometry 2x8x100x48 -dlb lewi  # rebalanced runtime, explicit shape
//	earlybird -in fe.json -part-bytes 262144 -bin-timeout-ms 0.5
//	earlybird -app minife -remote http://localhost:8080   # ask a running earlybirdd
//	earlybird -app miniqmc -strategies                    # full strategy-grid optimizer
//	earlybird -app minife -fleet http://h1:8080,http://h2:8080   # federate across workers
//	earlybird -scenario examples/scenarios/quick.yaml            # declarative campaign
//
// With -remote the assessment is requested from a running earlybirdd
// study service (POST /v1/feasibility) instead of computed in-process,
// so repeated invocations across machines share the service's coalesced
// executions and caches.
//
// With -strategies the three-strategy assessment is replaced by the
// strategy lab's optimizer sweep: the full grid (bulk, fine-grained,
// binned timeouts, EWMA-predicted binning, IQR-switching hybrid, tuned
// laggard-aware) evaluated on the cursor path, rendered as a frontier
// table. With -app it runs on an in-process serve.Server's strategy
// grid, the executor behind POST /v1/strategies; combined with -remote
// it asks that endpoint instead. An explicit -bin-timeout-ms replaces
// the grid's timeout axis on every path, -in included. An explicit
// -bin-timeout-ms below the 10 µs floor, 0 included, is refused on
// every path; left out, it is 1 ms.
//
// With -fleet (a comma-separated list of earlybirdd worker URLs) the
// study is federated through an in-process coordinator, the same
// serve.Server an earlybirdd -peers daemon runs: trial shards execute on
// the workers over /v1/shard and merge into results provably equal to
// single-node execution. -fleet -strategies dispatches strategy cells
// whole to their rendezvous workers instead. A cell no worker can take
// runs locally, as on the daemon.
//
// With -scenario the study flags are replaced by a declarative scenario
// file (internal/scenario): sources x geometries x noise x dlb x
// fabrics x timeouts compile to a campaign whose coverage of the
// declared cross-product is verified before anything runs. Its cells
// run through an in-process serve.Server, the study executor behind
// /v1/study. -scenario-check stops after printing the verified plan;
// -remote sends the scenario (traces inlined) to POST /v1/scenario;
// -fleet gives the in-process server a fleet, which takes
// wire-expressible cells whole on their rendezvous workers while the
// rest run locally, bit-identical either way.
package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"

	"earlybird/internal/cliopts"
	"earlybird/internal/cluster"
	"earlybird/internal/core"
	"earlybird/internal/dlb"
	"earlybird/internal/engine"
	"earlybird/internal/fleet"
	"earlybird/internal/network"
	"earlybird/internal/partcomm"
	"earlybird/internal/scenario"
	"earlybird/internal/serve"
	"earlybird/internal/trace"
)

func main() {
	if err := runMain(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "earlybird:", err)
		os.Exit(1)
	}
}

// runMain parses flags and routes to the local, remote or fleet path.
func runMain(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("earlybird", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		app        = cliopts.App(fs, "")
		geometry   = cliopts.Geometry(fs, cluster.Config{Trials: 3, Ranks: 8, Iterations: 60, Threads: 48, Seed: 1})
		policy     = cliopts.DLB(fs)
		strategies = cliopts.Strategies(fs)
		in         = fs.String("in", "", "dataset JSON (alternative to -app)")
		partBytes  = fs.Int("part-bytes", 1<<20, "bytes per partition (one partition per thread)")
		timeoutMs  = fs.Float64("bin-timeout-ms", 1.0, "binned-strategy flush timeout (ms)")
		latencyUs  = fs.Float64("latency-us", 1.0, "fabric latency (us)")
		bwGBs      = fs.Float64("bandwidth-gbs", 12.5, "fabric bandwidth (GB/s)")
		scenFile   = fs.String("scenario", "", "scenario file (YAML or JSON): compile the declared cross-product into a campaign, verify coverage, and run every cell")
		scenCheck  = fs.Bool("scenario-check", false, "with -scenario: compile and verify only; print the campaign plan without running it")
		remote     = fs.String("remote", "", "base URL of a running earlybirdd (assess via the service instead of in-process)")
		fleetCSV   = fs.String("fleet", "", "comma-separated earlybirdd worker URLs: federate the study across them through an in-process coordinator")
		storeDir   = fs.String("store-dir", "", "durable result store directory for -fleet: merged cells persist there and repeat runs are served from disk")
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

	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	if *scenCheck && *scenFile == "" {
		return fmt.Errorf("-scenario-check requires -scenario")
	}
	if *scenFile != "" {
		// The scenario file declares every axis a study flag would set;
		// accepting both would silently drop one side.
		for _, name := range []string{"app", "in", "strategies", "geometry", "dlb",
			"bin-timeout-ms", "part-bytes", "latency-us", "bandwidth-gbs"} {
			if set[name] {
				return fmt.Errorf("-%s conflicts with -scenario: the scenario file declares the campaign", name)
			}
		}
		if *storeDir != "" {
			return fmt.Errorf("-store-dir does not apply to -scenario: scenario cells dispatch over /v1/study, whose results live in the workers' caches")
		}
		switch {
		case *remote != "" && *fleetCSV != "":
			return fmt.Errorf("-remote and -fleet are mutually exclusive: a fleet is a set of remotes")
		case *remote != "":
			return runRemoteScenario(stdout, *remote, *scenFile, *scenCheck)
		}
		return runScenario(stdout, *fleetCSV, *scenFile, *scenCheck)
	}

	// An explicit timeout is the one timeout of every path: the
	// assessment's, and the -strategies grid's only one. So no value of
	// it may mean the default on one path and fail on the other.
	if set["bin-timeout-ms"] {
		if err := partcomm.CheckBinTimeout(*timeoutMs * 1e-3); err != nil {
			return fmt.Errorf("-bin-timeout-ms: %w", err)
		}
	}

	if *in != "" && (policy.IsSet || geometry.IsSet) {
		return fmt.Errorf("-dlb and -geometry shape dataset generation; a pre-collected dataset (-in) is already shaped")
	}

	if *storeDir != "" && *fleetCSV == "" {
		return fmt.Errorf("-store-dir only applies to federated execution; add -fleet")
	}

	opts := cli{
		app:        app.Name,
		in:         *in,
		partBytes:  *partBytes,
		timeoutSec: *timeoutMs * 1e-3,
		timeouts:   binTimeouts(set, *timeoutMs),
		geom:       geometry.Config,
		fabric:     network.Fabric{LatencySec: *latencyUs * 1e-6, BandwidthBytesPerSec: *bwGBs * 1e9, OverheadSec: 0.3e-6},
		strategies: *strategies,
		dlb:        policy.Spec,
		dlbSet:     policy.IsSet,
		storeDir:   *storeDir,
	}
	// engine.Spec.Resolve checks an -app study's inputs before any work
	// starts, on every path; run resolves an -in study once it is read.
	if opts.in == "" && opts.app != "" {
		if _, err := opts.spec().Resolve(); err != nil {
			return err
		}
	}

	switch {
	case *remote != "" && *fleetCSV != "":
		return fmt.Errorf("-remote and -fleet are mutually exclusive: a fleet is a set of remotes")
	case *fleetCSV != "":
		switch {
		case *in != "":
			return fmt.Errorf("-fleet cannot assess a local dataset (-in); datasets do not travel over the wire")
		case opts.app == "":
			return fmt.Errorf("-fleet requires -app")
		}
		if !*strategies {
			// The federated sweep path reports streaming metrics and the
			// classifier verdict — it has no fabric or partition inputs,
			// so explicitly-set feasibility flags would be silently
			// dropped. Refuse instead of misleading.
			for _, name := range []string{"bin-timeout-ms", "part-bytes", "latency-us", "bandwidth-gbs"} {
				if set[name] {
					return fmt.Errorf("-%s has no effect on the federated sweep path; combine it with -fleet -strategies, or use -remote for the fabric-based feasibility assessment", name)
				}
			}
		}
		if *strategies {
			return runStrategies(stdout, *fleetCSV, opts)
		}
		return runFleet(stdout, *fleetCSV, opts)
	case *remote != "":
		switch {
		case *in != "":
			return fmt.Errorf("-remote cannot assess a local dataset (-in); datasets do not travel over the wire")
		case opts.app == "":
			return fmt.Errorf("-remote requires -app")
		case *strategies:
			return runRemoteStrategies(stdout, *remote, opts)
		}
		return runRemote(stdout, *remote, opts)
	case *strategies && opts.app != "" && *in == "":
		return runStrategies(stdout, "", opts)
	}
	return run(stdout, opts)
}

// cli is the parsed flag state every execution path consumes.
type cli struct {
	app        string
	in         string
	partBytes  int       // 0 is the default, as at /v1/study
	timeoutSec float64   // -bin-timeout-ms for the three-strategy assessment
	timeouts   []float64 // explicit strategy-grid timeout axis, nil = standard grid
	geom       cluster.Config
	fabric     network.Fabric
	strategies bool
	dlb        dlb.Spec
	dlbSet     bool
	storeDir   string // -store-dir: durable result store for -fleet
}

// spec is the engine spec of the study the flags describe, without an
// -in dataset.
func (o cli) spec() engine.Spec {
	return engine.Spec{
		App:               o.app,
		Geometry:          o.geom,
		BytesPerPartition: o.partBytes,
		Fabric:            o.fabric,
		BinTimeoutSec:     o.timeoutSec,
		DLB:               o.dlb,
	}
}

// dlbPointer renders the -dlb flag for request fields that take a
// *dlb.Spec (/v1/strategies, the /v1 policy envelope): nil when the
// flag was absent, so the server's default policy (if any) still
// applies.
func (o cli) dlbPointer() *dlb.Spec {
	if !o.dlbSet {
		return nil
	}
	d := o.dlb
	return &d
}

// strategiesRequest is the single-cell strategies request of every
// -app -strategies path: local, -remote and -fleet alike.
func (o cli) strategiesRequest() serve.StrategiesRequest {
	fabric := o.fabric
	return serve.StrategiesRequest{
		Apps:              []string{o.app},
		Geometries:        []cluster.Config{o.geom},
		BytesPerPartition: o.partBytes,
		TimeoutsSec:       o.timeouts,
		Fabric:            &fabric,
		DLB:               o.dlbPointer(),
	}
}

// binTimeouts maps an explicitly-set -bin-timeout-ms onto the strategy
// grid's timeout axis; left at its default, nil selects the standard
// optimizer grid.
func binTimeouts(set map[string]bool, timeoutMs float64) []float64 {
	if set["bin-timeout-ms"] {
		return []float64{timeoutMs * 1e-3}
	}
	return nil
}

// printSweep renders one strategy-lab sweep as a frontier table.
func printSweep(w io.Writer, app string, sw partcomm.Sweep) {
	fmt.Fprintf(w, "%s: potential overlap %.3f ms/thread\n", app, 1e3*sw.PotentialOverlapSec)
	for _, r := range sw.Results {
		fmt.Fprintf(w, "  %-24s finish %8.3f ms  overlap %8.3f ms  speedup %5.3fx  capture %5.1f%%\n",
			r.Strategy, 1e3*r.MeanFinishSec, 1e3*r.MeanOverlapSec, r.SpeedupVsBulk, 100*r.OverlapCapture)
	}
	fmt.Fprintf(w, "  -> best %s: finish %.3f ms, captures %.1f%% of potential\n",
		sw.Best, 1e3*sw.BestFinishSec, 100*sw.BestCapture)
}

// coordinator returns the in-process serve.Server the -strategies,
// -scenario and -fleet paths run on, at the CLI's unbounded study size.
// With peersCSV set it coordinates a fleet over those workers, as an
// earlybirdd -peers daemon does, so a cell no worker can take runs
// locally here too; fl is that fleet. Without it the server's Fleet
// stays a nil interface (a typed-nil *fleet.Fleet in it would read as a
// configured fleet) and fl is nil.
func coordinator(peersCSV, storeDir string) (srv *serve.Server, fl *fleet.Fleet, err error) {
	opts := serve.Options{MaxStudySamples: math.MaxInt}
	if peersCSV != "" {
		if fl, err = openFleet(peersCSV, storeDir); err != nil {
			return nil, nil, err
		}
		opts.Fleet = fl
	}
	return serve.New(opts), fl, nil
}

// openFleet opens a fleet over the comma-separated worker URLs (with
// its durable store in storeDir, if set) and probes it.
func openFleet(peersCSV, storeDir string) (*fleet.Fleet, error) {
	fopts := fleet.Options{Peers: fleet.SplitPeers(peersCSV)}
	if storeDir != "" {
		st, err := fleet.OpenStore(storeDir, nil)
		if err != nil {
			return nil, err
		}
		fopts.Store = st
	}
	fl, err := fleet.New(fopts)
	if err != nil {
		return nil, err
	}
	// With a warm store the sweep can answer from disk even when every
	// worker is down, so an empty probe is only fatal without one.
	if healthy := fl.Probe(context.Background()); healthy == 0 && storeDir == "" {
		return nil, fmt.Errorf("no healthy workers among %v", fl.Workers())
	}
	return fl, nil
}

// runStrategies runs the strategy-lab optimizer for -app on an
// in-process serve.Server's strategy grid, the executor behind
// /v1/strategies. With -fleet (peersCSV set) the cell dispatches whole
// to its rendezvous worker and runs locally only when no worker takes
// it.
func runStrategies(w io.Writer, peersCSV string, o cli) error {
	srv, fl, err := coordinator(peersCSV, o.storeDir)
	if err != nil {
		return err
	}
	g, err := srv.StrategyGrid(o.strategiesRequest())
	if err != nil {
		return err
	}
	rows := g.Rows(context.Background())
	if fl != nil {
		fmt.Fprintf(w, "federated strategy grid over fleet of %d healthy workers\n", fl.Healthy())
	}
	for _, row := range rows {
		switch {
		case row.Err != "" && fl != nil:
			return fmt.Errorf("fleet: %s", row.Err)
		case row.Err != "":
			return errors.New(row.Err)
		case fl != nil && !row.Federated:
			fmt.Fprintf(w, "evaluated %s locally (no worker could take it)\n", row.App)
		}
		printSweep(w, row.App, row.Sweep)
	}
	return nil
}

// runFleet federates the study across a fleet of workers as trial
// shards and renders the merged result.
func runFleet(w io.Writer, peersCSV string, o cli) error {
	srv, _, err := coordinator(peersCSV, o.storeDir)
	if err != nil {
		return err
	}
	req := serve.SweepRequest{Apps: []string{o.app}, Geometries: []cluster.Config{o.geom}}
	if o.dlbSet {
		req.DLBs = []dlb.Spec{o.dlb}
	}
	g, err := srv.SweepGrid(req)
	if err != nil {
		return err
	}
	for _, row := range g.Rows(context.Background()) {
		if row.Err != "" {
			return fmt.Errorf("fleet: %s", row.Err)
		}
		workers := slices.Compact(slices.Sorted(slices.Values(row.ShardWorkers)))
		switch {
		case row.StoreHit:
			fmt.Fprintf(w, "served %s from the durable result store (no shards dispatched)\n", row.App)
		case row.Shards == 0:
			fmt.Fprintf(w, "ran %s locally (no worker could take it)\n", row.App)
		default:
			fmt.Fprintf(w, "federated %s as %d trial shards over %d workers\n", row.App, row.Shards, len(workers))
		}
		fmt.Fprintln(w, row.Metrics)
		fmt.Fprintln(w, row.Table1)
		fmt.Fprintf(w, "recommendation: %s\n", row.Recommendation)
	}
	return nil
}

// post sends req as JSON to the running earlybirdd at base and decodes
// its 200 reply into resp; any other status is an error carrying the
// start of the reply body.
func post(base, path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	r, err := http.Post(base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(r.Body, 4096))
		return fmt.Errorf("service returned %s: %s", r.Status, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(r.Body).Decode(resp)
}

// runRemoteStrategies asks a running study service for the optimizer
// sweep (POST /v1/strategies, single cell, JSON mode).
func runRemoteStrategies(w io.Writer, base string, o cli) error {
	var sr serve.StrategiesResponse
	if err := post(base, "/v1/strategies", o.strategiesRequest(), &sr); err != nil {
		return err
	}
	for _, row := range sr.Rows {
		if row.Err != "" {
			return fmt.Errorf("service: %s", row.Err)
		}
		fmt.Fprintf(w, "served by %s (%s)\n", base, row.Source)
		printSweep(w, row.App, row.Sweep)
	}
	return nil
}

// runRemote asks a running study service for the assessment.
func runRemote(w io.Writer, base string, o cli) error {
	geom, fabric := o.geom, o.fabric
	spec := serve.StudySpec{
		App:               o.app,
		Geometry:          &geom,
		BytesPerPartition: o.partBytes,
		Fabric:            &fabric,
		Policy:            &serve.PolicySpec{DLB: o.dlbPointer(), BinTimeoutSec: o.timeoutSec},
	}
	var fr serve.FeasibilityResponse
	if err := post(base, "/v1/feasibility", spec, &fr); err != nil {
		return err
	}
	fmt.Fprintf(w, "served by %s (%s)\n", base, fr.Source)
	fmt.Fprint(w, fr.Assessment)
	return nil
}

// compileScenarioFile reads a scenario, compiles it (trace paths
// resolved relative to the file) and proves coverage, printing the
// campaign plan — the shared preamble of every -scenario path.
func compileScenarioFile(w io.Writer, path string) (*scenario.Compiled, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	spec, err := scenario.Parse(data)
	if err != nil {
		return nil, err
	}
	c, err := spec.Compile(scenario.CompileOptions{BaseDir: filepath.Dir(path)})
	if err != nil {
		return nil, err
	}
	cov, err := c.Verify()
	if err != nil {
		return nil, err
	}
	fmt.Fprint(w, c.Plan())
	fmt.Fprintf(w, "coverage verified: %d cells cover the declared cross-product exactly (%d unique studies)\n",
		cov.Cells, cov.UniqueSpecs)
	return c, nil
}

// assessmentLine condenses one cell's verdict to a result line.
func assessmentLine(a core.Assessment) string {
	return fmt.Sprintf("%-28s  laggards %5.1f%%  iqr/median %6.3f  overlap %8.3f ms",
		a.Recommendation, 100*a.LaggardFraction, a.IQRToMedian, 1e3*a.PotentialOverlapSec)
}

// runScenario compiles, verifies and runs a scenario through an
// in-process serve.Server, whose study executor (the one behind
// /v1/study) answers every cell; identical cells share one execution
// through its coalescer. With -fleet (peersCSV set) wire-expressible
// cells (bare app specs — no noise wrapper, no dataset) dispatch whole
// to their rendezvous workers over /v1/study; the rest, and any cell no
// worker takes, run locally. Both paths execute the same resolved specs
// deterministically, so the assessment lines are bit-identical either
// way.
func runScenario(w io.Writer, peersCSV, path string, check bool) error {
	c, err := compileScenarioFile(w, path)
	if err != nil {
		return err
	}
	if check {
		return nil
	}
	srv, fl, err := coordinator(peersCSV, "")
	if err != nil {
		return err
	}
	rows := srv.ScenarioGrid(c, 0).Rows(context.Background())
	for _, row := range rows {
		if row.Err != "" {
			return fmt.Errorf("cell %d: %s", row.Index, row.Err)
		}
	}
	federated := 0
	for _, row := range rows {
		if fl == nil {
			fmt.Fprintf(w, "%3d  %s\n", row.Index, assessmentLine(row.Assessment))
			continue
		}
		where := "local"
		if row.Federated {
			where = "fleet"
			federated++
		}
		fmt.Fprintf(w, "%3d  %-5s  %s\n", row.Index, where, assessmentLine(row.Assessment))
	}
	if fl != nil {
		fmt.Fprintf(w, "federated %d/%d cells over %d healthy workers\n", federated, len(rows), fl.Healthy())
	}
	return nil
}

// runRemoteScenario sends the scenario to a running earlybirdd
// (POST /v1/scenario), with path-backed trace sources inlined first —
// server-side file paths do not travel over the wire. Compilation,
// verification and coalesced execution all happen service-side.
func runRemoteScenario(w io.Writer, base, path string, check bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	spec, err := scenario.Parse(data)
	if err != nil {
		return err
	}
	doc, err := spec.Wire(filepath.Dir(path))
	if err != nil {
		return err
	}
	var sr serve.ScenarioResponse
	if err := post(base, "/v1/scenario", serve.ScenarioRequest{Scenario: string(doc), Check: check}, &sr); err != nil {
		return err
	}
	fmt.Fprintf(w, "scenario %s compiled server-side by %s: %d cells (%d unique studies)\n",
		sr.Name, base, sr.Cells, sr.UniqueSpecs)
	if check {
		fmt.Fprint(w, sr.Plan)
		return nil
	}
	for _, row := range sr.Rows {
		if row.Err != "" {
			return fmt.Errorf("cell %d: %s", row.Index, row.Err)
		}
		where := string(row.Source)
		if row.Federated {
			where = "fleet"
		}
		fmt.Fprintf(w, "%3d  %-12s  %s\n", row.Index, where, assessmentLine(row.Assessment))
	}
	if sr.Failed > 0 {
		return fmt.Errorf("%d cells failed", sr.Failed)
	}
	return nil
}

// run assesses an -app or -in study in-process: the resolved spec runs
// through engine.RunSpec, as every campaign spec does.
func run(w io.Writer, o cli) error {
	sp := o.spec()
	switch {
	case o.in != "":
		f, err := os.Open(o.in)
		if err != nil {
			return err
		}
		defer f.Close()
		if sp.Dataset, err = trace.ReadJSON(f); err != nil {
			return err
		}
	case o.app == "":
		return fmt.Errorf("one of -app or -in is required")
	}
	r, err := engine.New(0).RunSpec(sp)
	if err != nil {
		return fmt.Errorf("%s: %w", cmp.Or(o.in, o.app), err)
	}
	if o.strategies {
		var grid []partcomm.Strategy // nil: the standard grid
		if o.timeouts != nil {
			grid = partcomm.Grid([]float64{r.Spec.BinTimeoutSec}, core.DefaultStrategyEWMAAlphas(), r.Study.Laggards())
		}
		printSweep(w, r.Study.App(), r.Study.StrategySweep(r.Spec.BytesPerPartition, r.Spec.Fabric, grid))
		return nil
	}
	fmt.Fprint(w, r.Assessment)
	return nil
}
