// Package earlybird reproduces the measurement and feasibility study of
// "Measuring Thread Timing to Assess the Feasibility of Early-bird
// Message Delivery" (Marts et al., 2023): per-thread timing
// instrumentation of fork/join compute regions, statistical analysis of
// thread-arrival distributions, and evaluation of early-bird partitioned
// message delivery against the measured arrivals.
//
// Quick start:
//
//	study, err := earlybird.NewStudy(earlybird.Options{App: "minife"})
//	if err != nil { ... }
//	fmt.Println(study.Metrics())                       // Section 4.2 scalars
//	fmt.Println(study.Table1())                        // Table 1 row
//	a := study.Feasibility(1<<20, earlybird.OmniPath(), 1e-3)
//	fmt.Println(a.Recommendation)                      // Section 5 verdict
//
// Study.Analyze returns all three from one exact pass over the dataset,
// bit-identical to the separate calls and several times cheaper.
//
// Batches of studies run as a campaign: RunCampaign fans the specs out
// over a bounded worker pool, deduplicates identical specs to a single
// execution, serves repeated (model, geometry, seed) datasets from a
// content-addressed cache, and streams results to a collector as they
// complete — deterministically, regardless of scheduling order:
//
//	results, err := earlybird.RunCampaign(earlybird.Campaign{
//		Specs: []earlybird.CampaignSpec{
//			{App: "minife"},
//			{App: "minimd", Geometry: earlybird.QuickGeometry()},
//			{App: "miniqmc", Alpha: 0.01},
//		},
//	})
//
// To share the dataset cache across several campaigns, create one engine
// with NewEngine and call its Run method directly.
//
// For HTTP traffic, NewServer (or the blocking Serve) runs its own
// engine and exposes /v1/study, /v1/campaign, /v1/feasibility, the
// NDJSON-streaming /v1/sweep and the /v1/strategies delivery-strategy
// optimizer with singleflight request coalescing and a bounded LRU
// result cache layered over the engine's dataset cache — see
// internal/serve and the cmd/earlybirdd daemon.
//
// Sweeps scale past one machine with the fleet layer: a Server with a
// NewFleet set as its fleet — or FleetSweep, which runs one in-process —
// scatters a scenario grid across remote earlybirdd workers as trial
// shards (POST /v1/shard returns mergeable accumulator state) and
// gathers results that are bit-identical to single-node execution for
// every exact metric — see internal/fleet and the cmd/earlybirdd -peers
// coordinator mode.
//
// Whole campaigns can be declared instead of assembled: a YAML or JSON
// scenario — application or trace-replay sources crossed with geometry,
// noise, DLB-policy, fabric and timeout axes — compiles to campaign
// cells whose exact coverage of the declared cross-product is verified
// before anything runs. cmd/earlybird -scenario and the service's POST
// /v1/scenario are its packaged forms — see internal/scenario.
//
// The strategy lab extends the paper's Section 5 feasibility question:
// Study.StrategySweep (and cmd/earlybird -strategies) evaluates a grid
// of delivery strategies — including adaptive ones: EWMA-predicted
// timeout binning, laggard-aware batching and an IQR-switching hybrid —
// over the measured arrivals on the cursor path and reports the
// frontier.
//
// The heavy lifting lives in the internal packages (omp, trace, workload,
// cluster, engine, stats/normality, partcomm, analysis, experiments);
// this package is the stable facade.
package earlybird

import (
	"context"
	"fmt"
	"math"
	"net/http"

	"earlybird/internal/analysis"
	"earlybird/internal/cluster"
	"earlybird/internal/core"
	"earlybird/internal/dlb"
	"earlybird/internal/engine"
	"earlybird/internal/fleet"
	"earlybird/internal/network"
	"earlybird/internal/partcomm"
	"earlybird/internal/serve"
	"earlybird/internal/telemetry"
	"earlybird/internal/trace"
)

// Study is a collected thread-timing dataset plus analysis configuration.
type Study = core.Study

// Options configures NewStudy.
type Options = core.Options

// Assessment is an early-bird feasibility verdict.
type Assessment = core.Assessment

// Recommendation classifies how an application should employ early-bird
// communication (Section 5 of the paper).
type Recommendation = core.Recommendation

// Recommendation values.
const (
	RecommendTimeoutFlush  = core.RecommendTimeoutFlush
	RecommendFineGrained   = core.RecommendFineGrained
	RecommendSophisticated = core.RecommendSophisticated
)

// PolicySpec bundles a study's policy axes — the delivery-strategy set,
// the runtime rebalancing (DLB) policy the dataset is generated under,
// the normality significance level and the laggard rule — as
// Options.Policy. Zero fields inherit the paper's defaults.
type PolicySpec = core.PolicySpec

// DLBSpec selects and parameterises a runtime rebalancing policy: the
// static thread layout (the zero value), LeWI lend-when-idle, or
// DROM-style reassignment with a reaction latency. It joins the engine
// cache key, so differently balanced runs never share a dataset.
type DLBSpec = dlb.Spec

// Rebalancing policy names for DLBSpec.Policy.
const (
	DLBStatic = dlb.PolicyStatic
	DLBLeWI   = dlb.PolicyLeWI
	DLBDROM   = dlb.PolicyDROM
)

// ParseDLB reads the CLI form of a rebalancing policy — "static",
// "lewi:factor=1.5,lend=0.3", "drom:reaction=2" — as accepted by the
// commands' shared -dlb flag; DLBSpec.String renders it back.
func ParseDLB(text string) (DLBSpec, error) { return dlb.Parse(text) }

// Geometry is a study size (trials x ranks x iterations x threads).
type Geometry = cluster.Config

// Fabric is an alpha-beta interconnect parameterisation for feasibility
// evaluation.
type Fabric = network.Fabric

// Dataset is the raw compute-time tensor of a study.
type Dataset = trace.Dataset

// AppMetrics holds the Section 4.2 scalar metrics of a study.
type AppMetrics = analysis.AppMetrics

// StrategyResult summarises one delivery strategy over a study.
type StrategyResult = partcomm.Result

// StrategySweep is the outcome of a delivery-strategy grid evaluation:
// per-strategy results plus the frontier. Produced by
// Study.StrategySweep and the /v1/strategies endpoint.
type StrategySweep = partcomm.Sweep

// NewStudy runs a study with the given options.
func NewStudy(opts Options) (*Study, error) { return core.NewStudy(opts) }

// StreamResult is the outcome of a streaming study: Section 4.2 metrics,
// Table 1 row and application-level summary, computed online while the
// samples were produced.
type StreamResult = core.StreamResult

// StreamStudy runs a study in streaming mode: per-iteration sample
// blocks feed mergeable accumulators and are then discarded, so
// geometries far beyond the paper's (HugeGeometry and up) run in bounded
// memory. The exact materialised path remains available via NewStudy.
func StreamStudy(opts Options) (*StreamResult, error) { return core.StreamStudy(opts) }

// StreamMetrics is StreamStudy reduced to the Section 4.2 scalar
// metrics — the cheapest full-study analysis path.
func StreamMetrics(opts Options) (AppMetrics, error) { return core.StreamMetrics(opts) }

// FromDataset wraps a previously collected dataset.
func FromDataset(d *Dataset) (*Study, error) { return core.FromDataset(d) }

// PaperGeometry returns the paper's configuration: 10 trials, 8 ranks,
// 200 iterations, 48 threads.
func PaperGeometry() Geometry { return cluster.DefaultConfig() }

// QuickGeometry returns a reduced configuration for experimentation.
func QuickGeometry() Geometry { return cluster.SmallConfig() }

// HugeGeometry returns a configuration with 100x the paper's sample
// count (76.8 million samples). Materialised this would be a 614 MB
// tensor; StreamStudy analyses it in bounded memory.
func HugeGeometry() Geometry { return cluster.HugeConfig() }

// OmniPath returns the interconnect parameters representative of the
// paper's testbed fabric.
func OmniPath() Fabric { return network.OmniPath() }

// Campaign is a batch of study specs plus execution policy.
type Campaign = engine.Campaign

// CampaignSpec describes one study of a campaign; zero fields fill with
// the paper's defaults.
type CampaignSpec = engine.Spec

// CampaignResult is the analysed outcome of one campaign spec.
type CampaignResult = engine.Result

// Engine executes campaigns over a shared content-addressed dataset
// cache.
type Engine = engine.Engine

// NewEngine returns an engine whose campaigns run at most workers studies
// concurrently; workers <= 0 means one per usable CPU. Campaigns run on
// one engine share its dataset cache.
func NewEngine(workers int) *Engine { return engine.New(workers) }

// RunCampaign executes the campaign on a fresh engine and returns one
// result per spec, in spec order. Identical specs execute once; per-spec
// failures are recorded on the results and joined into the returned
// error.
func RunCampaign(c Campaign) ([]CampaignResult, error) {
	return engine.New(c.Workers).Run(c)
}

// Server is the HTTP study service: JSON endpoints for single studies,
// batched campaigns, feasibility assessments and NDJSON scenario sweeps
// over one campaign engine, with singleflight request coalescing and a
// bounded LRU result cache of answers. No dataset outlives the request
// that filled it.
type Server = serve.Server

// ServeOptions configures NewServer and Serve. The zero value serves
// with one worker per CPU and the default result cache bound.
type ServeOptions = serve.Options

// NewServer returns a ready-to-serve study service. Use its Handler to
// embed the API in an existing mux, or ListenAndServe/Shutdown to run it
// standalone; cmd/earlybirdd is the packaged daemon.
func NewServer(opts ServeOptions) *Server { return serve.New(opts) }

// Progress is a live point-in-time snapshot of a running (or recently
// finished) study: trials and sample blocks completed, EWMA fill rate,
// estimated time to completion, parallel fill efficiency and DLB lend
// events. Streams from the server's /v1/progress endpoint as NDJSON and
// appears in /v1/stats under telemetry.active.
type Progress = telemetry.Progress

// ProgressID derives the stable identifier a study's live progress is
// published under at /v1/progress?id=. It hashes the same execution
// coordinates as the engine's dataset cache key (app, geometry, seed,
// resolved rebalancing policy), so two requests for the same study —
// including coalesced duplicates — share one progress stream.
func ProgressID(app string, geom Geometry, policy DLBSpec) string {
	return serve.ProgressID(app, geom, policy)
}

// Fleet federates sweep execution across remote earlybirdd workers:
// health-probed registry, rendezvous cell scheduling, bounded dispatch,
// failover, and shard-state merging that is provably equivalent to
// single-node execution (bit-exact for every metric, the histogram-
// estimated IQR statistics included, and for Table 1).
type Fleet = fleet.Fleet

// FleetOptions configures NewFleet.
type FleetOptions = fleet.Options

// SweepRequest describes a scenario grid for Server sweeps and
// FleetSweep: the cross product of applications, geometries,
// significance levels and laggard thresholds.
type SweepRequest = serve.SweepRequest

// SweepRow is one sweep cell's streaming analysis, with federation
// provenance (shard count, workers) when it was computed by a fleet.
type SweepRow = serve.SweepRow

// NewFleet returns a federation client over the given workers. Set it
// as ServeOptions.Fleet to make a server the fleet's coordinator: its
// sweep cells, strategy cells and bare-app studies (/v1/study,
// /v1/feasibility, /v1/campaign, /v1/scenario cells) then fan out to
// the workers transparently. FleetSweep, cmd/earlybirdd -peers and
// cmd/earlybird -fleet are the packaged forms.
func NewFleet(opts FleetOptions) (*Fleet, error) { return fleet.New(opts) }

// FleetSweep runs one sweep request across the fleet of workers at the
// given base URLs, through an in-process coordinator (a Server with the
// fleet set), and returns the rows in grid order. It probes the workers
// first and fails if none is healthy; a cell no worker can take runs
// locally, as on any coordinator, and per-cell failures are reported on
// the rows. The merged results are bit-identical to single-node
// execution for every exact metric.
func FleetSweep(ctx context.Context, peers []string, req SweepRequest) ([]SweepRow, error) {
	f, err := fleet.New(fleet.Options{Peers: peers})
	if err != nil {
		return nil, err
	}
	if f.Probe(ctx) == 0 {
		return nil, fmt.Errorf("earlybird: no healthy fleet workers among %v", peers)
	}
	g, err := serve.New(serve.Options{Fleet: f, MaxStudySamples: math.MaxInt}).SweepGrid(req)
	if err != nil {
		return nil, err
	}
	return g.Rows(ctx), nil
}

// Serve runs the study service on addr until ctx is cancelled, then
// drains in-flight requests gracefully (without a deadline — wrap
// Shutdown yourself via NewServer for a bounded drain, as cmd/earlybirdd
// does). It returns nil after a clean drain, or the listener error.
func Serve(ctx context.Context, addr string, opts ServeOptions) error {
	srv := serve.New(opts)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(addr) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		return err
	}
	// A clean drain surfaces as ErrServerClosed; anything else is a
	// listener failure that raced the cancellation.
	if err := <-errc; err != nil && err != http.ErrServerClosed {
		return err
	}
	return nil
}
