// Command earlybirdd is the study service daemon: the HTTP front end
// over the campaign engine, serving single studies, batched campaigns,
// feasibility assessments and NDJSON scenario sweeps with request
// coalescing and layered result/dataset caching.
//
//	earlybirdd -addr :8080
//	curl -s localhost:8080/v1/study -d '{"app":"minife","geometry_name":"quick"}'
//	curl -s localhost:8080/v1/sweep -d '{"apps":["minife","miniqmc"],"alphas":[0.05,0.01]}'
//	curl -s localhost:8080/v1/stats
//
// POST /v1/scenario accepts a whole declarative scenario document (the
// same YAML or JSON `earlybird -scenario` reads; trace sources inlined
// as CSV): the daemon compiles it, proves the campaign covers the
// declared cross-product exactly, and runs every cell through the same
// coalescing stack as /v1/study — federating wire-expressible cells
// when serving as a coordinator.
//
// With -peers the daemon becomes a federation coordinator: sweep cells
// fan out to the listed earlybirdd workers over /v1/shard (mergeable
// accumulator state, results provably equal to single-node execution)
// and only run locally when no healthy peer can take them.
//
//	earlybirdd -addr :8081 &                    # worker
//	earlybirdd -addr :8080 -peers http://localhost:8081   # coordinator
//
// -coordinator opens the fleet to dynamic membership: workers register
// themselves over POST /v1/fleet/join (the -join/-advertise flags run
// the worker-side heartbeat) and hold a -lease the coordinator's probe
// loop expires, so a silent worker deregisters itself. -store-dir adds
// the durable result store: merged sweep cells persist on disk keyed by
// their spec hash and survive coordinator restarts.
//
//	earlybirdd -addr :8080 -coordinator -store-dir .earlybird-store &
//	earlybirdd -addr :8081 -join http://localhost:8080 -advertise http://localhost:8081
//
// Live telemetry rides along: -metrics-addr starts a second listener
// serving only /metrics (Prometheus), /v1/progress (NDJSON study
// progress) and /v1/healthz, and -admission-watermark sheds new
// materialising studies with 503 + Retry-After while live fill
// efficiency sits below the watermark.
//
//	earlybirdd -addr :8080 -metrics-addr :9090 -admission-watermark 0.25
//
// The process drains gracefully on SIGINT/SIGTERM: the listener closes
// immediately, in-flight requests get -drain-timeout to finish.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"earlybird/internal/cliopts"
	"earlybird/internal/fleet"
	"earlybird/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "earlybirdd:", err)
		os.Exit(1)
	}
}

// run is the daemon body, testable without signals or a real process:
// it serves until ctx is done, then drains.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("earlybirdd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr          = fs.String("addr", ":8080", "listen address")
		workers       = fs.Int("workers", 0, "max concurrently executing studies (0 = one per CPU)")
		maxResults    = fs.Int("max-results", serve.DefaultMaxResults, "LRU result cache capacity (negative disables)")
		maxDatasets   = fs.Int("max-datasets", serve.DefaultMaxDatasets, "dataset cache bound (negative = unbounded)")
		maxStudy      = fs.Int("max-study-samples", serve.DefaultMaxStudySamples, "largest geometry (samples) the materialising study endpoints accept")
		drainTimeout  = fs.Duration("drain-timeout", 30*time.Second, "graceful shutdown drain window")
		metricsAddr   = fs.String("metrics-addr", "", "optional second listener serving only /metrics, /v1/progress and /v1/healthz (observability without exposing execution)")
		watermark     = fs.Float64("admission-watermark", 0, "shed new materialising studies with 503 + Retry-After while live fill efficiency is below this (0 disables, max 1)")
		peers         = fs.String("peers", "", "comma-separated earlybirdd worker URLs; serve as a federation coordinator, fanning sweeps out over /v1/shard")
		shardsPerCell = fs.Int("shards-per-cell", 0, "trial shards per federated sweep cell (0 = one per healthy peer)")
		probeEvery    = fs.Duration("probe-interval", 5*time.Second, "how often the coordinator re-probes peer health")
		coordinator   = fs.Bool("coordinator", false, "serve as a federation coordinator with dynamic membership: workers register over POST /v1/fleet/join (usable with or without a static -peers seed)")
		lease         = fs.Duration("lease", fleet.DefaultLeaseTTL, "membership lease for dynamically joined workers; a worker that stops renewing is evicted")
		storeDir      = fs.String("store-dir", "", "durable result store directory (coordinator mode): merged sweep cells persist there and survive restarts")
		join          = fs.String("join", "", "coordinator base URL to register with as a worker (requires -advertise)")
		advertise     = fs.String("advertise", "", "externally reachable base URL of this worker, sent on -join")
		policy        = cliopts.DLB(fs)
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
	coordMode := *peers != "" || *coordinator
	if !coordMode {
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		for _, name := range []string{"shards-per-cell", "probe-interval", "lease", "store-dir"} {
			if set[name] {
				return fmt.Errorf("-%s only applies to coordinator mode; add -peers or -coordinator", name)
			}
		}
	}
	if *join != "" && *advertise == "" {
		return fmt.Errorf("-join requires -advertise (the URL the coordinator will dispatch shards to)")
	}
	if *advertise != "" && *join == "" {
		return fmt.Errorf("-advertise only applies with -join")
	}

	if *watermark < 0 || *watermark > 1 {
		return fmt.Errorf("-admission-watermark %v out of range [0, 1]", *watermark)
	}

	opts := serve.Options{
		Workers:            *workers,
		MaxResults:         *maxResults,
		MaxDatasets:        *maxDatasets,
		MaxStudySamples:    *maxStudy,
		DefaultDLB:         policy.Spec,
		AdmissionWatermark: *watermark,
	}
	if !policy.Spec.IsStatic() {
		fmt.Fprintf(stdout, "earlybirdd: default rebalancing policy %s (requests may override via their policy envelope)\n", policy.Spec)
	}
	if coordMode {
		fopts := fleet.Options{
			Peers:         fleet.SplitPeers(*peers),
			ShardsPerCell: *shardsPerCell,
			Dynamic:       *coordinator,
			LeaseTTL:      *lease,
		}
		if *storeDir != "" {
			st, err := fleet.OpenStore(*storeDir, nil)
			if err != nil {
				return err
			}
			fopts.Store = st
			fmt.Fprintf(stdout, "earlybirdd: durable result store in %s\n", st.Dir())
		}
		fl, err := fleet.New(fopts)
		if err != nil {
			return err
		}
		if len(fl.Workers()) > 0 {
			healthy := fl.Probe(ctx)
			fmt.Fprintf(stdout, "earlybirdd: coordinating %d peers (%d healthy): %s\n",
				len(fl.Workers()), healthy, strings.Join(fl.Workers(), ", "))
		}
		if *coordinator {
			fmt.Fprintf(stdout, "earlybirdd: accepting dynamic workers on POST /v1/fleet/join (lease %s)\n", *lease)
		}
		fl.StartProbes(ctx, *probeEvery)
		opts.Fleet = fl
	}

	srv := serve.New(opts)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(*addr) }()
	fmt.Fprintf(stdout, "earlybirdd: serving on %s (%d workers, %d result slots, %d dataset slots)\n",
		*addr, srv.Engine().Workers(), *maxResults, *maxDatasets)
	if *watermark > 0 {
		fmt.Fprintf(stdout, "earlybirdd: adaptive admission watermark %.2f (shedding with 503 below it)\n", *watermark)
	}
	if *join != "" {
		go heartbeat(ctx, strings.TrimRight(*join, "/"), *advertise, stdout, stderr)
	}

	var metricsSrv *http.Server
	if *metricsAddr != "" {
		metricsSrv = &http.Server{Addr: *metricsAddr, Handler: srv.ObservabilityHandler()}
		go func() {
			if err := metricsSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				select {
				case errc <- fmt.Errorf("metrics listener: %w", err):
				default:
				}
			}
		}()
		fmt.Fprintf(stdout, "earlybirdd: metrics on %s (/metrics, /v1/progress, /v1/healthz)\n", *metricsAddr)
	}

	select {
	case err := <-errc:
		return err // a listener failed before any signal
	case <-ctx.Done():
	}

	fmt.Fprintf(stdout, "earlybirdd: draining (up to %s)\n", *drainTimeout)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if metricsSrv != nil {
		if err := metricsSrv.Shutdown(shutdownCtx); err != nil {
			return fmt.Errorf("metrics drain: %w", err)
		}
	}
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-errc; err != nil && err != http.ErrServerClosed {
		return err
	}
	fmt.Fprintln(stdout, "earlybirdd: stopped")
	return nil
}

// heartbeat is the worker side of dynamic membership: it registers this
// daemon with a coordinator over POST /v1/fleet/join and renews the
// granted lease at a third of its duration, so two missed heartbeats
// still keep the lease alive. A lost coordinator is retried until ctx
// ends; on shutdown the worker deregisters best-effort so the
// coordinator need not wait for lease expiry.
func heartbeat(ctx context.Context, coordinator, advertise string, stdout, stderr io.Writer) {
	client := &http.Client{Timeout: 5 * time.Second}
	post := func(ctx context.Context, path string) (serve.FleetJoinResponse, error) {
		var out serve.FleetJoinResponse
		body, err := json.Marshal(serve.FleetJoinRequest{URL: advertise})
		if err != nil {
			return out, err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, coordinator+path, bytes.NewReader(body))
		if err != nil {
			return out, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			return out, err
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if resp.StatusCode != http.StatusOK {
			return out, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(raw))
		}
		_ = json.Unmarshal(raw, &out)
		return out, nil
	}
	joined := false
	delay := time.Duration(0) // register immediately, then pace by the lease
	for {
		select {
		case <-ctx.Done():
			if joined {
				lctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				_, _ = post(lctx, "/v1/fleet/leave")
				cancel()
			}
			return
		case <-time.After(delay):
		}
		out, err := post(ctx, "/v1/fleet/join")
		if err != nil {
			if joined || delay == 0 {
				fmt.Fprintf(stderr, "earlybirdd: fleet join %s failed: %v (retrying)\n", coordinator, err)
			}
			joined = false
			delay = 2 * time.Second
			continue
		}
		if !joined {
			fmt.Fprintf(stdout, "earlybirdd: joined fleet at %s as %s (lease %.0fs)\n", coordinator, advertise, out.LeaseSec)
		}
		joined = true
		delay = time.Duration(out.LeaseSec / 3 * float64(time.Second))
		if delay < time.Second {
			delay = time.Second
		}
	}
}
