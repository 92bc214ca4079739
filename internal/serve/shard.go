// The /v1/shard endpoint: the worker half of federated sweep execution.
// A shard is one sweep cell restricted to a contiguous range of its
// trial space; the response carries the mergeable accumulator state —
// not finished rows — so a coordinator can combine shards from many
// workers into a result provably equal to single-node execution.
//
// Exactness contract: the workload models are deterministic functions of
// (root seed, absolute trial, rank, iteration), so a worker generating
// trials [lo, hi) of a geometry produces bit-identical samples to those
// trials of a full single-node run, observed in the same within-trial
// order by the cursor. The accumulators key their partials by absolute
// trial and finalize in ascending-trial order, which makes every
// metric and the Table 1 row bit-identical under any trial partition.
// The IQR statistics are too: each iteration's quantile histogram holds
// counts that depend only on the set of samples, so shard histograms
// merge into exactly the single-node one.

package serve

import (
	"cmp"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"earlybird/internal/analysis"
	"earlybird/internal/cluster"
	"earlybird/internal/core"
	"earlybird/internal/dlb"
	"earlybird/internal/engine"
	"earlybird/internal/stats/normality"
	"earlybird/internal/workload"
)

// ShardRequest asks for one cell's accumulator state over the trial
// range [TrialLo, TrialHi). Geometry fields resolve exactly like
// StudySpec's; Alpha and LaggardThresholdSec default to the paper's.
type ShardRequest struct {
	App string `json:"app"`
	// Geometry is the FULL cell geometry (its Trials is the whole trial
	// space, not the shard's size); mutually exclusive with GeometryName.
	Geometry     *cluster.Config `json:"geometry,omitempty"`
	GeometryName string          `json:"geometry_name,omitempty"`
	Alpha        float64         `json:"alpha,omitempty"`
	LaggardSec   float64         `json:"laggard_threshold_sec,omitempty"`
	// DLB is the cell's rebalancing policy; omitted means static. Shards
	// never apply a server default: the coordinator resolved the cell's
	// policy and the worker must execute exactly that. Rebalancing is
	// strictly per-trial, so the exactness contract survives any trial
	// partition under any policy.
	DLB     *dlb.Spec `json:"dlb,omitempty"`
	TrialLo int       `json:"trial_lo"`
	TrialHi int       `json:"trial_hi"`
}

// ShardResponse is one shard's accumulator state. MetricsState and
// Table1State are the binary encodings of analysis.MetricsAccumulator
// and analysis.Table1Accumulator, keyed by absolute trial so shards
// merge in any order. On the wire the whole response is one sealed
// binary record (MarshalBinary, UnmarshalBinary; see record.go), not
// JSON; the JSON tags describe the fields for Go clients that log or
// replay responses.
type ShardResponse struct {
	App                 string         `json:"app"`
	Geometry            cluster.Config `json:"geometry"`
	Alpha               float64        `json:"alpha"`
	LaggardThresholdSec float64        `json:"laggard_threshold_sec"`
	// DLB echoes the resolved rebalancing policy the shard ran under
	// (zero value: static).
	DLB     dlb.Spec `json:"dlb"`
	TrialLo int      `json:"trial_lo"`
	TrialHi int      `json:"trial_hi"`
	// Blocks is the number of process-iteration blocks observed:
	// (TrialHi-TrialLo) x ranks x iterations.
	Blocks       int64  `json:"blocks"`
	MetricsState []byte `json:"metrics_state"`
	Table1State  []byte `json:"table1_state"`
	// DatasetCacheHit reports the shard read an engine-cached columnar
	// store; Streamed reports it was over the sweep cache bound and ran
	// uncached through the streamed fold, to the same bits.
	DatasetCacheHit bool `json:"dataset_cache_hit"`
	Streamed        bool `json:"streamed"`
}

// Resolve validates the request and fills defaults. A worker executes
// the resolved request, and a coordinator checks a worker's answer
// against it (Accept). It refuses a geometry over maxTrialIterations,
// whose accumulator state no bound on live samples would limit, or over
// maxIterationSamples, whose per-iteration buffers and total work no
// other bound limits: a local sweep cell, a worker's shard and a fleet
// cell all resolve here.
func (req ShardRequest) Resolve() (ShardRequest, error) {
	if req.Geometry != nil && req.GeometryName != "" {
		return req, fmt.Errorf("geometry and geometry_name are mutually exclusive")
	}
	geom := cluster.DefaultConfig()
	if req.Geometry != nil {
		geom = defaultedGeometry(*req.Geometry)
	} else if req.GeometryName != "" {
		g, err := namedGeometry(req.GeometryName)
		if err != nil {
			return req, err
		}
		geom = g
	}
	if err := geom.Validate(); err != nil {
		return req, err
	}
	if geom.Iterations > maxTrialIterations/geom.Trials {
		return req, fmt.Errorf("geometry has %d trials x %d iterations, over the accumulator-state limit of %d trial-iterations",
			geom.Trials, geom.Iterations, maxTrialIterations)
	}
	if geom.Threads > maxIterationSamples/geom.Ranks {
		return req, fmt.Errorf("geometry has %d ranks x %d threads, over the limit of %d samples per trial-iteration",
			geom.Ranks, geom.Threads, maxIterationSamples)
	}
	req.Geometry = &geom
	if err := engine.CheckAnalysis(req.Alpha, req.LaggardSec, 0); err != nil {
		return req, err
	}
	req.Alpha, req.LaggardSec = paperDefaults(req.Alpha, req.LaggardSec)
	if req.DLB != nil {
		resolved, err := req.DLB.Resolve()
		if err != nil {
			return req, err
		}
		req.DLB = &resolved
	}
	if req.TrialLo < 0 || req.TrialHi <= req.TrialLo || req.TrialHi > geom.Trials {
		return req, fmt.Errorf("trial range [%d, %d) outside the geometry's %d trials",
			req.TrialLo, req.TrialHi, geom.Trials)
	}
	return req, nil
}

// paperDefaults maps a zero alpha or laggard threshold to the paper's.
// It is the one defaulting rule for both: Resolve applies it to a shard
// and SweepRequest.Cells to every grid point.
func paperDefaults(alpha, laggardSec float64) (float64, float64) {
	return cmp.Or(alpha, normality.DefaultAlpha), cmp.Or(laggardSec, analysis.DefaultLaggardThresholdSec)
}

// runShard computes one shard's accumulator state and returns it as a
// record header plus the two accumulators, which the handler encodes
// straight into the sealed record. Shards at or below the sweep cache
// bound read the engine's columnar cache through a block kernel over a
// deterministic cursor (hot for repeated cells routed to this worker);
// larger shards run uncached through core.FoldTrials, to the same bits,
// within MaxCachedSweepSamples x 8 bytes of extra state. A local sweep
// cell runs here too, as the shard [0, Trials) (sweepCell).
func (s *Server) runShard(req ShardRequest) (ShardResponse, *analysis.MetricsAccumulator, *analysis.Table1Accumulator, error) {
	geom := *req.Geometry
	var policy dlb.Spec
	if req.DLB != nil {
		policy = *req.DLB
	}
	resp := ShardResponse{
		App:                 req.App,
		Geometry:            geom,
		Alpha:               req.Alpha,
		LaggardThresholdSec: req.LaggardSec,
		DLB:                 policy,
		TrialLo:             req.TrialLo,
		TrialHi:             req.TrialHi,
	}
	base, err := workload.ByName(req.App)
	if err != nil {
		return resp, nil, nil, err
	}
	model := cluster.ShiftTrials(base, req.TrialLo)
	shardGeom := geom
	shardGeom.Trials = req.TrialHi - req.TrialLo

	macc := analysis.NewMetricsAccumulator(req.App, req.LaggardSec)
	tacc := analysis.NewTable1Accumulator(req.App, req.Alpha)
	if shardGeom.Samples() <= s.maxSweepSamples {
		col, hit, err := s.eng.ColumnarDLB(model, shardGeom, policy)
		if err != nil {
			return resp, nil, nil, err
		}
		resp.DatasetCacheHit = hit
		// One block kernel sorts each block once for both accumulators.
		analysis.NewKernel(macc, tacc).ObserveCursor(col.Cursor(), req.TrialLo)
	} else {
		// This fill bypasses the engine and its progress factory, so the
		// shard registers its one live tracker here, under the ID the
		// engine would give the cached branch.
		tr := s.newTracker(model.Name(), shardGeom, policy)
		defer s.tel.Finish(tr)
		budget := int64(min(s.maxSweepSamples, math.MaxInt64/8)) * 8
		if err := core.FoldTrials(base, geom, policy, req.TrialLo, req.TrialHi, budget, macc, tacc, tr); err != nil {
			return resp, nil, nil, err
		}
		resp.Streamed = true
	}
	resp.Blocks = macc.Blocks()
	return resp, macc, tacc, nil
}

// handleShard answers POST /v1/shard: one cell's trial-range accumulator
// state, for a fleet coordinator to merge, as one sealed binary record
// (application/octet-stream, with a Content-Length). Execution takes a
// slot of the server-wide semaphore like any other study-shaped work,
// and adaptive admission gates it the same way: a worker below its
// efficiency watermark sheds the shard with 503 + Retry-After, which the
// coordinator's scheduler reads as busy-until-deadline — never as death.
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	var req ShardRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	resolved, err := req.Resolve()
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	if err := s.admit(); err != nil {
		writeStudyError(w, err)
		return
	}
	release := s.acquire()
	hdr, macc, tacc, err := s.runShard(resolved)
	release()
	var record []byte
	if err == nil {
		record, err = AppendShardRecord(nil, &hdr, macc, tacc)
	}
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(record)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(record)
}
