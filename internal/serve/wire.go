package serve

import (
	"cmp"
	"fmt"

	"earlybird/internal/analysis"
	"earlybird/internal/cluster"
	"earlybird/internal/core"
	"earlybird/internal/dlb"
	"earlybird/internal/engine"
	"earlybird/internal/network"
	"earlybird/internal/share"
)

// PolicySpec is the policy envelope of the /v1 study endpoints: the
// analysis and runtime knobs of one study. Omitted fields fall back to
// the server default (DLB only), then the paper default.
type PolicySpec struct {
	// DLB selects the runtime rebalancing policy the dataset is
	// generated under; omitted means the server's default (static unless
	// the server was started with one).
	DLB *dlb.Spec `json:"dlb,omitempty"`
	// Alpha is the normality significance level; omitted means 5%.
	Alpha float64 `json:"alpha,omitempty"`
	// LaggardThresholdSec is the laggard rule; omitted means 1 ms.
	LaggardThresholdSec float64 `json:"laggard_threshold_sec,omitempty"`
	// BinTimeoutSec is the binned delivery strategy's flush timeout;
	// omitted means 1 ms.
	BinTimeoutSec float64 `json:"bin_timeout_sec,omitempty"`
}

// StudySpec is the wire form of engine.Spec: everything JSON-expressible
// about one study. Zero or omitted fields fill with the paper's defaults,
// exactly as engine.Spec does, so the empty object is a valid request for
// the paper-geometry MiniFE study once "app" is set.
type StudySpec struct {
	// App names a built-in application model: minife, minimd or miniqmc.
	App string `json:"app"`
	// Geometry sizes the study explicitly; mutually exclusive with
	// GeometryName. Omitted means the paper's 10x8x200x48, seed 1.
	Geometry *cluster.Config `json:"geometry,omitempty"`
	// GeometryName selects a named geometry: "paper", "quick" or "huge".
	GeometryName string `json:"geometry_name,omitempty"`
	// Policy is the policy envelope: significance level, laggard rule,
	// bin timeout and DLB policy.
	Policy *PolicySpec `json:"policy,omitempty"`
	// BytesPerPartition sizes the feasibility partitions; omitted means
	// 1 MiB.
	BytesPerPartition int `json:"bytes_per_partition,omitempty"`
	// Fabric overrides the interconnect model; omitted means the paper's
	// Omni-Path parameters.
	Fabric *network.Fabric `json:"fabric,omitempty"`
}

// namedGeometry resolves a GeometryName.
func namedGeometry(name string) (cluster.Config, error) {
	if cfg, ok := cluster.Named(cmp.Or(name, "paper")); ok {
		return cfg, nil
	}
	return cluster.Config{}, fmt.Errorf("unknown geometry name %q (want paper, quick or huge)", name)
}

// toSpec converts the wire spec to an engine spec, resolving the named
// geometry if one was given. Its values are checked where every study's
// are, by engine.Spec.Resolve.
func (w StudySpec) toSpec() (engine.Spec, error) {
	sp := engine.Spec{App: w.App, BytesPerPartition: w.BytesPerPartition}
	if w.Geometry != nil && w.GeometryName != "" {
		return sp, fmt.Errorf("geometry and geometry_name are mutually exclusive")
	}
	if w.Geometry != nil {
		sp.Geometry = *w.Geometry
	} else if w.GeometryName != "" {
		g, err := namedGeometry(w.GeometryName)
		if err != nil {
			return sp, err
		}
		sp.Geometry = g
	}
	if w.Fabric != nil {
		sp.Fabric = *w.Fabric
	}
	if p := w.Policy; p != nil {
		if p.DLB != nil {
			sp.DLB = *p.DLB
		}
		sp.Alpha, sp.LaggardThresholdSec, sp.BinTimeoutSec = p.Alpha, p.LaggardThresholdSec, p.BinTimeoutSec
	}
	return sp, nil
}

// WireStudySpec renders a resolved engine spec as the /v1/study wire
// form, for dispatching a bare-app study whole to a fleet worker. Every field is post-resolution, so the worker resolves
// to the identical spec key and the result is bit-identical to local
// execution of the same cell.
func WireStudySpec(resolved engine.Spec) StudySpec {
	geom := resolved.Geometry
	fabric := resolved.Fabric
	d := resolved.DLB
	return StudySpec{
		App:               resolved.App,
		Geometry:          &geom,
		BytesPerPartition: resolved.BytesPerPartition,
		Fabric:            &fabric,
		Policy: &PolicySpec{
			DLB:                 &d,
			Alpha:               resolved.Alpha,
			LaggardThresholdSec: resolved.LaggardThresholdSec,
			BinTimeoutSec:       resolved.BinTimeoutSec,
		},
	}
}

// Source labels how a study response was produced, from cheapest to most
// expensive: the labels of the result cache the study and strategy
// paths share (internal/share).
type Source = share.Source

const (
	// SourceResultCache: the resolved spec was in the LRU result cache.
	SourceResultCache = share.Cached
	// SourceCoalesced: the request attached to an identical in-flight
	// execution and shared its result.
	SourceCoalesced = share.Coalesced
	// SourceExecuted: this request ran the analysis itself (its dataset
	// may still have come from another study's fill in the same
	// request — see DatasetCacheHit).
	SourceExecuted = share.Executed
)

// StudyResponse is the /v1/study reply: the resolved spec's identity,
// the full analysis, and where the answer came from.
type StudyResponse struct {
	App      string         `json:"app"`
	Geometry cluster.Config `json:"geometry"`
	Alpha    float64        `json:"alpha"`
	// DLB echoes the resolved rebalancing policy the dataset was
	// generated under (zero value: static).
	DLB dlb.Spec `json:"dlb"`

	Metrics    analysis.AppMetrics `json:"metrics"`
	Table1     analysis.Table1     `json:"table1"`
	Assessment core.Assessment     `json:"assessment"`

	// Source reports which layer answered: result-cache, coalesced or
	// executed.
	Source Source `json:"source"`
	// DatasetCacheHit reports that the study read a dataset another
	// study of the same request filled (a campaign or scenario entry
	// that differs from an earlier one only in analysis parameters)
	// rather than filling its own; only meaningful for executed
	// responses. No dataset outlives its request, so a lone study
	// never reports one.
	DatasetCacheHit bool `json:"dataset_cache_hit"`
	// Federated reports a coordinator dispatched the study whole to a
	// fleet worker, whose Source and DatasetCacheHit the reply carries.
	Federated bool `json:"federated,omitempty"`
}

// CampaignRequest is the /v1/campaign body: a batch of wire specs plus
// an optional concurrency bound.
type CampaignRequest struct {
	Specs []StudySpec `json:"specs"`
	// Workers bounds how many studies run concurrently; omitted or <= 0
	// uses the engine's bound.
	Workers int `json:"workers,omitempty"`
}

// CampaignResponse is the /v1/campaign reply: one entry per spec, in
// spec order. Per-spec failures carry an error string and empty
// analysis; the other entries are still valid.
type CampaignResponse struct {
	Results []CampaignEntry `json:"results"`
	// Failed counts entries with errors.
	Failed int `json:"failed"`
}

// CampaignEntry is one spec's outcome within a campaign response.
type CampaignEntry struct {
	Index int `json:"index"`
	StudyResponse
	Err string `json:"error,omitempty"`
}

// FeasibilityResponse is the /v1/feasibility reply: the Section 5
// verdict without the full metrics payload.
type FeasibilityResponse struct {
	App        string          `json:"app"`
	Geometry   cluster.Config  `json:"geometry"`
	Assessment core.Assessment `json:"assessment"`
	Source     Source          `json:"source"`
	Federated  bool            `json:"federated,omitempty"`
}

// errorResponse is the uniform error body.
type errorResponse struct {
	Error string `json:"error"`
}
