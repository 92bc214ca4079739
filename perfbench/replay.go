// The traced replay: handlers that perform the same sequence of public
// calls as the serve handlers they stand in for, with a span around each
// call into a layer. The program is not instrumented; the spans live
// here, at the layer boundaries the handlers cross.

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime/metrics"
	"sync"
	"time"

	"earlybird/internal/analysis"
	"earlybird/internal/core"
	"earlybird/internal/dlb"
	"earlybird/internal/engine"
	"earlybird/internal/rng"
	"earlybird/internal/serve"
	"earlybird/internal/stats/normality"
	"earlybird/internal/trace"
	"earlybird/internal/workload"
)

// maxBody mirrors the serve layer's request-body bound.
const maxBody = 8 << 20

// call runs fn inside a span named name.
func (t *tracer) call(name string, req, parent int, fn func()) {
	id := t.begin(name, req, parent)
	fn()
	t.end(id)
}

// heapAllocs reads cumulative heap allocation bytes.
func heapAllocs() int64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// fill runs a dataset generation inside a cluster.fill span that also
// records the bytes allocated while it ran.
func (t *tracer) fill(req, parent int, fn func()) {
	id := t.begin("cluster.fill", req, parent)
	a0 := heapAllocs()
	fn()
	t.setBytes(id, heapAllocs()-a0)
	t.end(id)
}

// encodeJSON is serve's writeJSON: one JSON value with HTML escaping off.
func encodeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// studyReplay replays POST /v1/study: decode, resolve and key the spec,
// probe the result cache, then on a miss fill the dataset through the
// engine's cache and run the three core analyses, and encode. The
// result cache is a map on the same engine.SpecKey the serve LRU keys
// on; every other call is the program's own.
type studyReplay struct {
	tr    *tracer
	eng   *engine.Engine
	mu    sync.Mutex
	cache map[engine.SpecKey]serve.StudyResponse
}

func newStudyReplay(tr *tracer, workers int) *studyReplay {
	eng := engine.New(workers)
	eng.SetMaxDatasets(serve.DefaultMaxDatasets)
	return &studyReplay{tr: tr, eng: eng, cache: map[engine.SpecKey]serve.StudyResponse{}}
}

func (h *studyReplay) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.tr
	req, parent := spanFrom(r)
	hs := tr.begin("serve.handler", req, parent)
	defer tr.end(hs)

	var wire serve.StudySpec
	var err error
	tr.call("serve.decode", req, hs, func() { err = decodeJSON(w, r, &wire) })
	if err != nil || wire.Geometry == nil {
		http.Error(w, fmt.Sprintf("bad study request: %v", err), http.StatusBadRequest)
		return
	}
	var sp engine.Spec
	var key engine.SpecKey
	tr.call("engine.resolve", req, hs, func() {
		sp, err = engine.Spec{App: wire.App, Geometry: *wire.Geometry}.Resolve()
		key = sp.Key()
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	h.mu.Lock()
	resp, hit := h.cache[key]
	h.mu.Unlock()
	if hit {
		resp.Source = serve.SourceResultCache
		tr.call("serve.encode", req, hs, func() { encodeJSON(w, resp) })
		return
	}

	var ds *trace.Dataset
	tr.fill(req, hs, func() { ds, resp.DatasetCacheHit, err = h.eng.DatasetDLB(sp.Model, sp.Geometry, sp.DLB) })
	var study *core.Study
	if err == nil {
		study, err = core.FromDatasetWith(ds, core.Options{Policy: core.PolicySpec{
			DLB: sp.DLB, Alpha: sp.Alpha, LaggardThresholdSec: sp.LaggardThresholdSec,
		}})
	}
	if err != nil {
		http.Error(w, fmt.Sprintf("study failed: %v", err), http.StatusUnprocessableEntity)
		return
	}
	resp.App, resp.Geometry, resp.Alpha, resp.DLB = sp.App, sp.Geometry, sp.Alpha, sp.DLB
	tr.call("core.metrics", req, hs, func() { resp.Metrics = study.Metrics() })
	tr.call("core.table1", req, hs, func() { resp.Table1 = study.Table1() })
	tr.call("core.feasibility", req, hs, func() {
		resp.Assessment = study.Feasibility(sp.BytesPerPartition, sp.Fabric, sp.BinTimeoutSec)
	})
	resp.Source = serve.SourceExecuted
	h.mu.Lock()
	h.cache[key] = resp
	h.mu.Unlock()
	tr.call("serve.encode", req, hs, func() { encodeJSON(w, resp) })
}

// trialShard offsets a model's trial axis exactly as serve's shard
// handler does, so shard lo > 0 keys and fills identically.
type trialShard struct {
	workload.Model
	lo int
}

func (m trialShard) Name() string { return fmt.Sprintf("%s#t%d", m.Model.Name(), m.lo) }

func (m trialShard) FillProcessIteration(root *rng.Source, trial, rank, iter int, out []float64) {
	m.Model.FillProcessIteration(root, trial+m.lo, rank, iter, out)
}

// shardReplay replays a worker's POST /v1/shard: decode, resolve, fill
// the trial range through the engine's cache, observe every block into
// the two accumulators, marshal their states, encode.
type shardReplay struct {
	tr  *tracer
	eng *engine.Engine
}

func newShardReplay(tr *tracer, workers int) *shardReplay {
	eng := engine.New(workers)
	eng.SetMaxDatasets(serve.DefaultMaxDatasets)
	return &shardReplay{tr: tr, eng: eng}
}

func (h *shardReplay) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.tr
	req, parent := spanFrom(r)
	hs := tr.begin("serve.handler", req, parent)
	defer tr.end(hs)

	var sr serve.ShardRequest
	var err error
	tr.call("serve.decode", req, hs, func() { err = decodeJSON(w, r, &sr) })
	if err != nil || sr.Geometry == nil {
		http.Error(w, fmt.Sprintf("bad shard request: %v", err), http.StatusBadRequest)
		return
	}
	var model workload.Model
	shardGeom := *sr.Geometry
	tr.call("engine.resolve", req, hs, func() {
		if err = sr.Geometry.Validate(); err != nil {
			return
		}
		if sr.Alpha == 0 {
			sr.Alpha = normality.DefaultAlpha
		}
		if sr.LaggardSec == 0 {
			sr.LaggardSec = analysis.DefaultLaggardThresholdSec
		}
		if model, err = workload.ByName(sr.App); err == nil && sr.TrialLo > 0 {
			model = trialShard{Model: model, lo: sr.TrialLo}
		}
		shardGeom.Trials = sr.TrialHi - sr.TrialLo
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	resp := serve.ShardResponse{
		App: sr.App, Geometry: *sr.Geometry, Alpha: sr.Alpha, LaggardThresholdSec: sr.LaggardSec,
		TrialLo: sr.TrialLo, TrialHi: sr.TrialHi,
	}
	var col *trace.Columnar
	tr.fill(req, hs, func() { col, resp.DatasetCacheHit, err = h.eng.ColumnarDLB(model, shardGeom, dlb.Spec{}) })
	if err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	macc := analysis.NewMetricsAccumulator(sr.App, sr.LaggardSec)
	tacc := analysis.NewTable1Accumulator(sr.App, sr.Alpha)
	tr.call("analysis.observe", req, hs, func() {
		cur := col.Cursor()
		for cur.Next() {
			b := cur.Block()
			macc.ObserveBlock(b.Trial+sr.TrialLo, b.Rank, b.Iter, b.Times)
			tacc.ObserveBlock(b.Trial+sr.TrialLo, b.Rank, b.Iter, b.Times)
		}
	})
	resp.Blocks = macc.Blocks()
	id := tr.begin("analysis.marshal", req, hs)
	if resp.MetricsState, err = macc.MarshalBinary(); err == nil {
		resp.Table1State, err = tacc.MarshalBinary()
	}
	tr.setBytes(id, int64(len(resp.MetricsState)+len(resp.Table1State)))
	tr.end(id)
	if err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	tr.call("serve.encode", req, hs, func() { encodeJSON(w, resp) })
}

// sweepReplay replays a fleet coordinator's POST /v1/sweep with
// Fleet.DispatchCell unrolled into its public calls: per cell, resolve
// the key, post each trial shard to a worker, decode, unmarshal and
// merge the states, finalize and classify, then encode the row. Cells
// and shards run one at a time, so the process CPU clock attributes
// every stretch to exactly one open layer call.
type sweepReplay struct {
	tr      *tracer
	peers   []string
	hc      *http.Client
	mu      sync.Mutex
	sampled []byte // one shard's marshalled states, for the wire probe
}

func newSweepReplay(tr *tracer, peers []string) *sweepReplay {
	return &sweepReplay{tr: tr, peers: peers, hc: newClient()}
}

func (h *sweepReplay) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.tr
	req, parent := spanFrom(r)
	hs := tr.begin("serve.handler", req, parent)
	defer tr.end(hs)

	var sr serve.SweepRequest
	var err error
	tr.call("serve.decode", req, hs, func() { err = decodeJSON(w, r, &sr) })
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var cells []serve.SweepCell
	tr.call("engine.resolve", req, hs, func() { cells, err = sr.Cells() })
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Sweep-Cells", fmt.Sprint(len(cells)))
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	for _, cell := range cells {
		row := h.dispatchCell(req, hs, cell)
		tr.call("serve.encode", req, hs, func() {
			_ = enc.Encode(row)
			if flusher != nil {
				flusher.Flush()
			}
		})
	}
}

// dispatchCell is Fleet.DispatchCell's sequence of public calls.
func (h *sweepReplay) dispatchCell(req, parent int, cell serve.SweepCell) serve.SweepRow {
	tr := h.tr
	ps := tr.begin("fleet.place", req, parent)
	defer tr.end(ps)
	row := serve.SweepRow{
		Index: cell.Index, App: cell.App, Geometry: cell.Geometry, Alpha: cell.Alpha,
		LaggardThresholdSec: cell.LaggardThresholdSec, DLB: cell.DLB,
	}
	fail := func(err error) serve.SweepRow {
		row.Err = err.Error()
		return row
	}
	var err error
	tr.call("engine.resolve", req, ps, func() {
		_, err = engine.Spec{
			App: cell.App, Geometry: cell.Geometry, Alpha: cell.Alpha,
			LaggardThresholdSec: cell.LaggardThresholdSec, DLB: cell.DLB,
		}.Resolve()
	})
	if err != nil {
		return fail(err)
	}
	macc := analysis.NewMetricsAccumulator(cell.App, cell.LaggardThresholdSec)
	tacc := analysis.NewTable1Accumulator(cell.App, cell.Alpha)
	trials := cell.Geometry.Trials
	for i := 0; i < shardsPerCell && i < trials; i++ {
		lo, hi := i*trials/shardsPerCell, (i+1)*trials/shardsPerCell
		body, err := json.Marshal(serve.ShardRequest{
			App: cell.App, Geometry: &cell.Geometry, Alpha: cell.Alpha,
			LaggardSec: cell.LaggardThresholdSec, TrialLo: lo, TrialHi: hi,
		})
		if err != nil {
			return fail(err)
		}
		peer := h.peers[i%len(h.peers)]
		ts := tr.begin("fleet.transport", req, ps)
		rep, err := post(h.hc, peer+"/v1/shard", body, func(hd http.Header) { setSpanHeader(hd, req, ts) })
		tr.end(ts)
		if err != nil {
			return fail(err)
		}
		if rep.status != http.StatusOK {
			return fail(fmt.Errorf("shard answered %d: %s", rep.status, bytes.TrimSpace(rep.body)))
		}
		var resp serve.ShardResponse
		tr.call("serve.decode", req, ps, func() { err = json.Unmarshal(rep.body, &resp) })
		if err != nil {
			return fail(err)
		}
		decM, decT := new(analysis.MetricsAccumulator), new(analysis.Table1Accumulator)
		tr.call("analysis.unmarshal", req, ps, func() {
			if err = decM.UnmarshalBinary(resp.MetricsState); err == nil {
				err = decT.UnmarshalBinary(resp.Table1State)
			}
		})
		if err != nil {
			return fail(err)
		}
		tr.call("analysis.merge", req, ps, func() {
			macc.Merge(decM)
			tacc.Merge(decT)
		})
		h.mu.Lock()
		if h.sampled == nil {
			h.sampled = append(append([]byte(nil), resp.MetricsState...), resp.Table1State...)
		}
		h.mu.Unlock()
		row.ShardWorkers = append(row.ShardWorkers, peer)
	}
	row.Shards = len(row.ShardWorkers)
	tr.call("analysis.finalize", req, ps, func() {
		row.Metrics = macc.Finalize()
		row.Table1 = tacc.Finalize()
		row.Recommendation = core.ClassifyMetrics(row.Metrics)
	})
	return row
}

// cellTimer times the real fleet's seams on the wall clock: it wraps the
// coordinator's serve.FleetDispatcher around Fleet.DispatchCell and each
// worker's handler around its shards, keyed by (app, seed).
type cellTimer struct {
	inner serve.FleetDispatcher
	mu    sync.Mutex
	cells map[cellID]time.Duration
	shard map[cellID][]time.Duration
}

type cellID struct {
	app  string
	seed uint64
}

func newCellTimer() *cellTimer {
	return &cellTimer{cells: map[cellID]time.Duration{}, shard: map[cellID][]time.Duration{}}
}

func (c *cellTimer) DispatchCell(ctx context.Context, cell serve.SweepCell) (serve.SweepRow, bool) {
	t0 := time.Now()
	row, ok := c.inner.DispatchCell(ctx, cell)
	d := time.Since(t0)
	c.mu.Lock()
	c.cells[cellID{cell.App, cell.Geometry.Seed}] = d
	c.mu.Unlock()
	return row, ok
}

func (c *cellTimer) Snapshot() serve.FleetSnapshot { return c.inner.Snapshot() }

// wrapWorker times every shard a worker serves.
func (c *cellTimer) wrapWorker(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/shard" {
			h.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var sr serve.ShardRequest
		_ = json.Unmarshal(body, &sr) // the handler reports a bad body
		r.Body = io.NopCloser(bytes.NewReader(body))
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t0)
		if sr.Geometry != nil {
			id := cellID{sr.App, sr.Geometry.Seed}
			c.mu.Lock()
			c.shard[id] = append(c.shard[id], d)
			c.mu.Unlock()
		}
	})
}
