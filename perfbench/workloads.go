package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"net/http"
	"strconv"

	"earlybird/internal/analysis"
	"earlybird/internal/cluster"
	"earlybird/internal/core"
	"earlybird/internal/fleet"
	"earlybird/internal/serve"
)

// Pinned concurrency: every server's Workers value, recorded in the
// report so a later change to them shows.
const (
	gomaxprocs       = 2
	studyWorkers     = 1 // single-node study servers (study-cold, study-hot)
	coordWorkers     = 2 // fleet-sweep coordinator and its single-node reference
	fleetWorkerCount = 2 // in-process fleet workers
	fleetWorkerSlots = 1 // Workers of each fleet worker
	shardsPerCell    = 2
)

// apps is the request rotation; paperClass is the Section 5 class the
// paper assigns each app, which every answer must reproduce.
var (
	apps       = []string{"minife", "minimd", "miniqmc"}
	paperClass = map[string]core.Recommendation{
		"minife":  core.RecommendTimeoutFlush,
		"minimd":  core.RecommendSophisticated,
		"miniqmc": core.RecommendFineGrained,
	}
)

// Geometries. coldGeometry is the paper's rank x iteration x thread
// shape with two trials; hotGeometry is the quick geometry.
var (
	coldGeometry = cluster.Config{Trials: 2, Ranks: 8, Iterations: 200, Threads: 48}
	hotGeometry  = cluster.SmallConfig()
)

const (
	hotStudies = 32  // distinct primed studies, under the 256-entry result LRU
	hotBatch   = 256 // cache hits per timed sample (one calibration run each)
	digestReqs = 100
)

// mix is splitmix64 over (seed, i): the per-request seed stream.
func mix(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// requestSeed derives request i's geometry seed from the run seed and
// the workload's stream: 41 bits with bit 40 set, so it never collides
// with the small fixed warm-up seeds and stays exact in JSON.
func requestSeed(seed int64, stream, i int) uint64 {
	return mix(uint64(seed)^uint64(stream)<<56, uint64(i))>>24 | 1<<40
}

// warmSeed is the fixed seed of set-up request i: identical in every
// run, so set-up work and its digest never depend on --seed.
func warmSeed(i int) uint64 { return uint64(1000 + i) }

func withSeed(g cluster.Config, seed uint64) cluster.Config {
	g.Seed = seed
	return g
}

// exactFields are the result fields every execution path must agree on
// bit for bit: the moment-derived metrics and the Table 1 pass rates.
// The IQR fields are sketch estimates on the sweep path and excluded.
func exactFields(m analysis.AppMetrics, t analysis.Table1) []float64 {
	return []float64{
		m.MeanMedianSec, m.LaggardFraction, m.AvgReclaimableProcSec, m.IdleRatioProc,
		m.AvgReclaimableAppIterSec, m.IdleRatioAppIter,
		t.PassRates[0], t.PassRates[1], t.PassRates[2],
	}
}

// foldExact folds one result's app and exact fields into a digest.
func foldExact(h hash.Hash64, app string, m analysis.AppMetrics, t analysis.Table1) {
	h.Write([]byte(app))
	var b [8]byte
	for _, v := range exactFields(m, t) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

// checkResult is the per-answer correctness check shared by studies and
// sweep rows.
func checkResult(app string, m analysis.AppMetrics, t analysis.Table1, rec core.Recommendation) error {
	if m.App != app || t.App != app {
		return fmt.Errorf("answer for app %q/%q, asked %q", m.App, t.App, app)
	}
	for i, v := range append(exactFields(m, t), m.IQRMeanSec, m.IQRMaxSec) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: field %d is %v", app, i, v)
		}
	}
	if want := paperClass[app]; rec != want {
		return fmt.Errorf("%s classified %q, paper says %q", app, rec, want)
	}
	return nil
}

// instance is one set-up workload, ready for timed requests.
type instance interface {
	// do sends request i of the run and checks its answer; an error
	// marks the request failed.
	do(i int) error
	digests() digests
	// counters reads the program's own cache and fleet counters.
	counters() (counters, error)
	close() error
}

// counters are the program's work counts the ledger reports as ratios.
type counters struct {
	resultHits, resultLookups   int64
	datasetHits, datasetLookups int64
	speculations, failovers     int64
}

func (c counters) minus(o counters) counters {
	return counters{
		c.resultHits - o.resultHits, c.resultLookups - o.resultLookups,
		c.datasetHits - o.datasetHits, c.datasetLookups - o.datasetLookups,
		c.speculations - o.speculations, c.failovers - o.failovers,
	}
}

// stats reads a server's GET /v1/stats.
func (s *studyServer) stats() (serve.StatsResponse, error) {
	var st serve.StatsResponse
	resp, err := s.client.hc.Get(s.svc.url + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("stats answered %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// counters: every study answered is a result-cache lookup; every
// execution is a dataset-cache lookup, and each generation a miss.
func (s *studyServer) counters() (counters, error) {
	st, err := s.stats()
	src := st.Study
	return counters{
		resultHits:     src.ResultCacheHits,
		resultLookups:  src.ResultCacheHits + src.Coalesced + src.Executed,
		datasetHits:    src.Executed - st.Engine.Executions,
		datasetLookups: src.Executed,
	}, err
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	// batch is how many requests one timed sample covers.
	batch int
	// setup builds the servers on env's backend and sends the warm-up
	// or priming requests.
	setup func(env *env, seed int64) (instance, error)
	// describe is the workload's geometry and pinned concurrency.
	describe string
}

var workloads = []workloadDef{
	{
		name: "study-cold", batch: 1, setup: setupStudyCold,
		describe: fmt.Sprintf("POST /v1/study, apps rotating, geometry %s, fresh seed per request; Workers=%d",
			geomString(coldGeometry), studyWorkers),
	},
	{
		name: "study-hot", batch: hotBatch, setup: setupStudyHot,
		describe: fmt.Sprintf("POST /v1/study, %d primed quick studies (%s) cycled, %d hits per sample; Workers=%d",
			hotStudies, geomString(hotGeometry), hotBatch, studyWorkers),
	},
	{
		name: "fleet-sweep", batch: 1, setup: setupFleetSweep,
		describe: fmt.Sprintf("POST /v1/sweep, 3 apps x %s fresh seed; coordinator Workers=%d, %d workers Workers=%d, ShardsPerCell=%d",
			geomString(coldGeometry), coordWorkers, fleetWorkerCount, fleetWorkerSlots, shardsPerCell),
	},
}

func geomString(g cluster.Config) string {
	return fmt.Sprintf("%dx%dx%dx%d", g.Trials, g.Ranks, g.Iterations, g.Threads)
}

// studyServer is one study service and a client bound to it.
type studyServer struct {
	svc    *service
	client *client
}

func (s *studyServer) close() error {
	s.client.hc.CloseIdleConnections()
	return s.svc.stop()
}

// study posts one study and checks the answer's shape and class.
func (s *studyServer) study(spec serve.StudySpec, want serve.Source) (serve.StudyResponse, []byte, error) {
	var resp serve.StudyResponse
	body, err := json.Marshal(spec)
	if err != nil {
		return resp, nil, err
	}
	r, err := s.client.post(s.svc.url+"/v1/study", body)
	if err != nil {
		return resp, nil, err
	}
	if r.status != http.StatusOK {
		return resp, r.body, fmt.Errorf("study answered %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	if err := json.Unmarshal(r.body, &resp); err != nil {
		return resp, r.body, fmt.Errorf("decoding study answer: %w", err)
	}
	if resp.Source != want {
		return resp, r.body, fmt.Errorf("study source %q, want %q", resp.Source, want)
	}
	if *spec.Geometry != resp.Geometry {
		return resp, r.body, fmt.Errorf("study geometry %+v, asked %+v", resp.Geometry, *spec.Geometry)
	}
	if want == serve.SourceExecuted && resp.DatasetCacheHit {
		return resp, r.body, errors.New("fresh study reported a dataset cache hit")
	}
	if len(resp.Assessment.Results) == 0 {
		return resp, r.body, errors.New("study answer has no strategy results")
	}
	return resp, r.body, checkResult(spec.App, resp.Metrics, resp.Table1, resp.Assessment.Recommendation)
}

// digests are a run's result fingerprints: fixed covers the set-up
// answers (seed-independent, so identical in every run), seeded the
// first digestReqs timed answers (identical for equal seeds).
type digests struct {
	fixed, seeded hash.Hash64
}

func newDigests() digests { return digests{fixed: fnv.New64a(), seeded: fnv.New64a()} }

// ---- study-cold ----

type studyCold struct {
	*studyServer
	seed int64
	dg   digests
}

func setupStudyCold(env *env, seed int64) (instance, error) {
	s, err := env.studyServer(studyWorkers)
	if err != nil {
		return nil, err
	}
	w := &studyCold{studyServer: s, seed: seed, dg: newDigests()}
	for i, app := range apps {
		g := withSeed(coldGeometry, warmSeed(i))
		resp, _, err := s.study(serve.StudySpec{App: app, Geometry: &g}, serve.SourceExecuted)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up %s: %w", app, err)
		}
		foldExact(w.dg.fixed, app, resp.Metrics, resp.Table1)
	}
	return w, nil
}

func coldSpec(seed int64, i int) serve.StudySpec {
	g := withSeed(coldGeometry, requestSeed(seed, 0, i))
	return serve.StudySpec{App: apps[i%len(apps)], Geometry: &g}
}

func (w *studyCold) digests() digests { return w.dg }

func (w *studyCold) do(i int) error {
	spec := coldSpec(w.seed, i)
	resp, _, err := w.study(spec, serve.SourceExecuted)
	if err == nil && i < digestReqs {
		foldExact(w.dg.seeded, spec.App, resp.Metrics, resp.Table1)
	}
	return err
}

// ---- study-hot ----

type studyHot struct {
	*studyServer
	bodies [][]byte // request bodies of the primed studies
	hits   [][]byte // the exact bytes each hit must return
	dg     digests
}

func hotSpec(seed int64, k int) serve.StudySpec {
	g := withSeed(hotGeometry, requestSeed(seed, 1, k))
	return serve.StudySpec{App: apps[k%len(apps)], Geometry: &g}
}

func setupStudyHot(env *env, seed int64) (instance, error) {
	s, err := env.studyServer(studyWorkers)
	if err != nil {
		return nil, err
	}
	w := &studyHot{studyServer: s, dg: newDigests()}
	for k := 0; k < hotStudies; k++ {
		spec := hotSpec(seed, k)
		resp, body, err := s.study(spec, serve.SourceExecuted)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("priming study %d: %w", k, err)
		}
		// A hit returns the stored result: the priming bytes with only
		// the source label changed.
		from, to := []byte(`"source":"executed"`), []byte(`"source":"result-cache"`)
		if bytes.Count(body, from) != 1 {
			s.close()
			return nil, fmt.Errorf("priming study %d: source label not found once", k)
		}
		req, _ := json.Marshal(spec)
		w.bodies = append(w.bodies, req)
		w.hits = append(w.hits, bytes.Replace(body, from, to, 1))
		foldExact(w.dg.seeded, spec.App, resp.Metrics, resp.Table1)
	}
	return w, nil
}

func (w *studyHot) digests() digests { return w.dg }

func (w *studyHot) do(i int) error {
	k := i % hotStudies
	r, err := w.client.post(w.svc.url+"/v1/study", w.bodies[k])
	if err != nil {
		return err
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("hit answered %d", r.status)
	}
	if !bytes.Equal(r.body, w.hits[k]) {
		return fmt.Errorf("hit %d is not byte-identical to its primed answer", k)
	}
	return nil
}

// ---- fleet-sweep ----

type fleetSweep struct {
	coord   *studyServer
	workers []*studyServer
	replay  *sweepReplay // the replay coordinator, on the replay backend
	fl      *fleet.Fleet // nil on the replay backend
	timer   *cellTimer   // non-nil when the fleet's seams are timed
	flc     *http.Client
	seed    int64
	dg      digests
}

func sweepRequest(seed uint64) serve.SweepRequest {
	return serve.SweepRequest{Apps: apps, Geometries: []cluster.Config{withSeed(coldGeometry, seed)}}
}

// sweep posts one sweep and checks every row; rows come back in grid
// order.
func sweep(c *client, url string, req serve.SweepRequest, shards int) ([]serve.SweepRow, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	r, err := c.post(url+"/v1/sweep", body)
	if err != nil {
		return nil, err
	}
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("sweep answered %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	if n, _ := strconv.Atoi(r.header.Get("X-Sweep-Cells")); n != len(req.Apps) {
		return nil, fmt.Errorf("sweep announced %d cells, asked %d", n, len(req.Apps))
	}
	rows := make([]serve.SweepRow, len(req.Apps))
	seen := make([]bool, len(rows))
	sc := bufio.NewScanner(bytes.NewReader(r.body))
	sc.Buffer(nil, 1<<20)
	n := 0
	for sc.Scan() {
		var row serve.SweepRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			return nil, fmt.Errorf("decoding sweep row: %w", err)
		}
		if row.Index < 0 || row.Index >= len(rows) || seen[row.Index] {
			return nil, fmt.Errorf("sweep row index %d out of range or repeated", row.Index)
		}
		if row.Err != "" {
			return nil, fmt.Errorf("sweep row %d failed: %s", row.Index, row.Err)
		}
		if row.Shards != shards {
			return nil, fmt.Errorf("sweep row %d ran in %d shards, want %d", row.Index, row.Shards, shards)
		}
		if err := checkResult(req.Apps[row.Index], row.Metrics, row.Table1, row.Recommendation); err != nil {
			return nil, err
		}
		seen[row.Index] = true
		rows[row.Index] = row
		n++
	}
	if n != len(rows) {
		return nil, fmt.Errorf("sweep returned %d rows, want %d", n, len(rows))
	}
	return rows, nil
}

func setupFleetSweep(env *env, seed int64) (inst instance, err error) {
	w := &fleetSweep{seed: seed, dg: newDigests(), flc: newClient()}
	defer func() {
		if err != nil {
			w.close()
		}
	}()
	if env.tr == nil && env.timed {
		w.timer = newCellTimer()
	}
	var peers []string
	for i := 0; i < fleetWorkerCount; i++ {
		ws, err := env.attach(env.worker(w.timer))
		if err != nil {
			return nil, err
		}
		w.workers = append(w.workers, ws)
		peers = append(peers, ws.svc.url)
	}
	var coord server
	if env.tr != nil {
		w.replay = newSweepReplay(env.tr, peers)
		coord = handlerServer(w.replay)
	} else {
		if w.fl, err = fleet.New(fleet.Options{Peers: peers, Client: w.flc, ShardsPerCell: shardsPerCell}); err != nil {
			return nil, err
		}
		if n := w.fl.Probe(context.Background()); n != fleetWorkerCount {
			return nil, fmt.Errorf("fleet probe found %d healthy workers, want %d", n, fleetWorkerCount)
		}
		var disp serve.FleetDispatcher = w.fl
		if w.timer != nil {
			w.timer.inner = w.fl
			disp = w.timer
		}
		coord = serve.New(serve.Options{Workers: coordWorkers, Fleet: disp})
	}
	if w.coord, err = env.attach(coord); err != nil {
		return nil, err
	}
	warm := sweepRequest(warmSeed(0))
	rows, err := sweep(w.coord.client, w.coord.svc.url, warm, shardsPerCell)
	if err != nil {
		return nil, fmt.Errorf("warm-up sweep: %w", err)
	}
	if env.tr == nil {
		if err := checkAgainstSingleNode(env, warm, rows); err != nil {
			return nil, err
		}
	}
	for _, row := range rows {
		foldExact(w.dg.fixed, row.App, row.Metrics, row.Table1)
	}
	return w, nil
}

// checkAgainstSingleNode runs the same cells on a single-node server and
// requires the fleet's exact fields to match bit for bit.
func checkAgainstSingleNode(env *env, req serve.SweepRequest, fleetRows []serve.SweepRow) error {
	ref, err := env.attach(serve.New(serve.Options{Workers: coordWorkers}))
	if err != nil {
		return err
	}
	defer ref.close()
	rows, err := sweep(ref.client, ref.svc.url, req, 0)
	if err != nil {
		return fmt.Errorf("single-node reference sweep: %w", err)
	}
	for i := range rows {
		a := exactFields(fleetRows[i].Metrics, fleetRows[i].Table1)
		b := exactFields(rows[i].Metrics, rows[i].Table1)
		for j := range a {
			if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
				return fmt.Errorf("fleet cell %d field %d = %v, single node %v", i, j, a[j], b[j])
			}
		}
	}
	return nil
}

func (w *fleetSweep) digests() digests { return w.dg }

// counters: each shard a worker serves is a dataset-cache lookup and
// each of its generations a miss; sweeps never read the result cache.
func (w *fleetSweep) counters() (counters, error) {
	var c counters
	for _, ws := range w.workers {
		st, err := ws.stats()
		if err != nil {
			return c, err
		}
		shards := st.Endpoints["/v1/shard"].Requests
		c.datasetLookups += shards
		c.datasetHits += shards - st.Engine.Executions
	}
	if w.fl != nil {
		snap := w.fl.Snapshot()
		c.speculations, c.failovers = snap.Speculations, snap.Failovers
	}
	return c, nil
}

func (w *fleetSweep) do(i int) error {
	req := sweepRequest(requestSeed(w.seed, 2, i))
	rows, err := sweep(w.coord.client, w.coord.svc.url, req, shardsPerCell)
	if err == nil && i < digestReqs {
		for _, row := range rows {
			foldExact(w.dg.seeded, row.App, row.Metrics, row.Table1)
		}
	}
	return err
}

func (w *fleetSweep) close() error {
	var errs []error
	if w.coord != nil {
		errs = append(errs, w.coord.close())
	}
	for _, ws := range w.workers {
		errs = append(errs, ws.close())
	}
	if w.replay != nil {
		w.replay.hc.CloseIdleConnections()
	}
	w.flc.CloseIdleConnections()
	return errors.Join(errs...)
}
