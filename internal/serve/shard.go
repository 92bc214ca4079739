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
	"earlybird/internal/share"
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
	// Readings lists further (alpha, laggard threshold) pairs, after the
	// request's own, that the shard answers from the same fill: the
	// answer is then a record set, one record per pair in order
	// (appendRecordSet). The cells of a sweep that differ only in these
	// two parameters share one fill this way.
	Readings []Reading `json:"readings,omitempty"`
	// DLB is the cell's rebalancing policy; omitted means static. Shards
	// never apply a server default: the coordinator resolved the cell's
	// policy and the worker must execute exactly that. Rebalancing is
	// strictly per-trial, so the exactness contract survives any trial
	// partition under any policy.
	DLB     *dlb.Spec `json:"dlb,omitempty"`
	TrialLo int       `json:"trial_lo"`
	TrialHi int       `json:"trial_hi"`
}

// Reading is one (alpha, laggard threshold) pair a shard's fill is read
// at; zeros mean the paper's defaults.
type Reading struct {
	Alpha      float64 `json:"alpha,omitempty"`
	LaggardSec float64 `json:"laggard_threshold_sec,omitempty"`
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
	// DatasetCacheHit is not in the sealed record and the server never
	// sets it: a shard folds straight from its fill and reads no dataset
	// cache. perfbench's JSON shard replay, which still reads a cached
	// columnar store, reports its lookup here.
	DatasetCacheHit bool `json:"dataset_cache_hit"`
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
	if len(req.Readings) >= maxSweepCells {
		return req, fmt.Errorf("shard asks for %d readings, limit %d", len(req.Readings)+1, maxSweepCells)
	}
	if len(req.Readings) > 0 {
		readings := make([]Reading, len(req.Readings))
		for i, rd := range req.Readings {
			if err := engine.CheckAnalysis(rd.Alpha, rd.LaggardSec, 0); err != nil {
				return req, err
			}
			readings[i].Alpha, readings[i].LaggardSec = paperDefaults(rd.Alpha, rd.LaggardSec)
		}
		req.Readings = readings
	}
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

// Split returns the single-reading requests the request holds, its own
// first: each record of its answer is checked against one (Accept).
func (req ShardRequest) Split() []ShardRequest {
	one := req
	one.Readings = nil
	out := append(make([]ShardRequest, 0, 1+len(req.Readings)), one)
	for _, rd := range req.Readings {
		one.Alpha, one.LaggardSec = rd.Alpha, rd.LaggardSec
		out = append(out, one)
	}
	return out
}

// shardFold is one shard's fill read at each of its request's readings:
// per reading, in order, the record header and the two accumulators
// that answer it. Readings with one laggard threshold share a metrics
// accumulator, and readings with one alpha a Table 1 accumulator.
type shardFold struct {
	hdrs    []*ShardResponse
	metrics []*analysis.MetricsAccumulator
	table1  []*analysis.Table1Accumulator
}

// release returns the fold's histograms to their pool once its states
// are encoded or finalized; nothing may read its metrics afterwards.
func (f *shardFold) release() {
	for _, m := range f.metrics {
		m.Release() // a shared accumulator's second Release is a no-op
	}
}

// runShard computes one shard's accumulator state at each of its
// readings, which the handler encodes straight into sealed records.
// Every shard folds straight from its fill through one block kernel
// (core.FoldReadings), each block sorted once for every reading: no
// dataset is cached, since a repeated cell is the coordinator's durable
// store's to answer. A shard at or under maxBoundedShardSamples folds on
// fillWorkers' share of the CPUs, falling back to one worker when more
// do not fit the fold's state budget; a larger one on up to GOMAXPROCS
// workers within that budget, or not at all. A local sweep cell runs
// here too, as the shard [0, Trials) (sweepCells).
func (s *Server) runShard(req ShardRequest) (*shardFold, error) {
	geom := *req.Geometry
	var policy dlb.Spec
	if req.DLB != nil {
		policy = *req.DLB
	}
	model, err := workload.ByName(req.App)
	if err != nil {
		return nil, err
	}
	f := &shardFold{}
	var ms []*analysis.MetricsAccumulator
	var ts []*analysis.Table1Accumulator
	byLaggard, byAlpha := map[uint64]int{}, map[uint64]int{}
	for _, one := range req.Split() {
		f.hdrs = append(f.hdrs, &ShardResponse{
			App:                 req.App,
			Geometry:            geom,
			Alpha:               one.Alpha,
			LaggardThresholdSec: one.LaggardSec,
			DLB:                 policy,
			TrialLo:             req.TrialLo,
			TrialHi:             req.TrialHi,
		})
		i, ok := byLaggard[math.Float64bits(one.LaggardSec)]
		if !ok {
			i = len(ms)
			byLaggard[math.Float64bits(one.LaggardSec)] = i
			ms = append(ms, analysis.NewMetricsAccumulator(req.App, one.LaggardSec))
		}
		j, ok := byAlpha[math.Float64bits(one.Alpha)]
		if !ok {
			j = len(ts)
			byAlpha[math.Float64bits(one.Alpha)] = j
			ts = append(ts, analysis.NewTable1Accumulator(req.App, one.Alpha))
		}
		f.metrics, f.table1 = append(f.metrics, ms[i]), append(f.table1, ts[j])
	}

	shardGeom := geom
	shardGeom.Trials = req.TrialHi - req.TrialLo
	workers, bounded := 0, false
	if shardGeom.Samples() <= s.maxSweepSamples {
		workers, bounded = s.fillWorkers(), true
	}
	// The fill bypasses the engine, so the shard registers its one live
	// tracker here.
	progress, done := s.fillProgress(model.Name(), shardGeom, policy, cmp.Or(workers, s.eng.Workers()))
	defer done()
	if err := core.FoldReadings(model, geom, policy, req.TrialLo, req.TrialHi, workers, bounded, ms, ts, progress); err != nil {
		return nil, err
	}
	for _, hdr := range f.hdrs {
		hdr.Blocks = ms[0].Blocks()
	}
	return f, nil
}

// fillWorkers divides the server's execution slots between the cells
// and studies holding one, so a lone cell fills on all of them and a
// full server fills each cell on one.
func (s *Server) fillWorkers() int {
	return max(1, s.eng.Workers()/max(1, len(s.sem)))
}

// handleShard answers POST /v1/shard: one cell's trial-range accumulator
// state, for a fleet coordinator to merge, as one sealed binary record
// (application/octet-stream, with a Content-Length) — or, when the
// request lists further readings, a record set of one per reading. Execution takes a
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
	f, err := s.runShard(resolved)
	release()
	var record []byte
	if err == nil {
		if len(f.hdrs) == 1 {
			record, err = AppendShardRecord(records.Get(), f.hdrs[0], f.metrics[0], f.table1[0])
		} else {
			record, err = appendRecordSet(records.Get(), f.hdrs, f.metrics, f.table1)
		}
		f.release()
	}
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	defer records.Put(record)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(record)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(record)
}

// records holds handleShard's record buffers between answers.
var records share.Buffers
