package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"earlybird/internal/analysis"
	"earlybird/internal/cluster"
	"earlybird/internal/core"
	"earlybird/internal/dlb"
	"earlybird/internal/stats/normality"
	"earlybird/internal/workload"
)

// metricBits lists a row's analysis as raw bits, so two rows compare
// bit for bit, signed zeros included.
func metricBits(row SweepRow) []uint64 {
	m := row.Metrics
	bits := []uint64{}
	for _, v := range []float64{
		m.MeanMedianSec, m.LaggardFraction, m.AvgReclaimableProcSec, m.IdleRatioProc,
		m.AvgReclaimableAppIterSec, m.IdleRatioAppIter, m.IQRMeanSec, m.IQRMaxSec,
	} {
		bits = append(bits, math.Float64bits(v))
	}
	for _, v := range row.Table1.PassRates {
		bits = append(bits, math.Float64bits(v))
	}
	return bits
}

// TestSweepRowSameAtAnyCacheBound pins that the sample bound sets the
// fill's workers only: a cell above it (the fold's parallel workers)
// answers with the same bits as the same cell below it (one fill
// worker), the iteration IQR included, for every app, static, LeWI and
// DROM. The fold's state budget and worker count above the bound do not
// depend on it, so one forced bound per policy covers every bound under
// the cell.
func TestSweepRowSameAtAnyCacheBound(t *testing.T) {
	cached := New(Options{Workers: 2})
	geom := cluster.Config{Trials: 4, Ranks: 4, Iterations: 50, Threads: 48, Seed: 7}
	streamed := New(Options{Workers: 2})
	streamed.maxSweepSamples = geom.Samples() - 1 // the cell is one sample over it
	check := func(policy dlb.Spec) {
		t.Helper()
		for _, app := range []string{"minife", "minimd", "miniqmc"} {
			cell := SweepCell{
				App: app, Geometry: geom, DLB: policy,
				Alpha: 0.05, LaggardThresholdSec: analysis.DefaultLaggardThresholdSec,
			}
			want, got := cached.sweepCell(cell), streamed.sweepCell(cell)
			if want.Err != "" || got.Err != "" {
				t.Fatalf("%s %s: errors %q / %q", app, policy, want.Err, got.Err)
			}
			if !reflect.DeepEqual(metricBits(got), metricBits(want)) || got.Recommendation != want.Recommendation {
				t.Errorf("%s %s: over-bound row differs from the cached one:\n got %+v %+v %s\nwant %+v %+v %s",
					app, policy, got.Metrics, got.Table1, got.Recommendation, want.Metrics, want.Table1, want.Recommendation)
			}
		}
	}
	check(dlb.Spec{})
	for _, name := range []string{dlb.PolicyLeWI, dlb.PolicyDROM} {
		policy, err := dlb.Spec{Policy: name}.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		check(policy)
	}
}

// TestOverBoundCellMemoryBounded pins that a request cannot make the
// server hold a trial's samples: a static trial far over the sweep
// bound streams with a small fraction of the trial's tensor allocated,
// and a rebalanced one, whose ranks fill together, is refused when its
// block table is over the fold's state budget (1x2048x1000x32, a 65 MB
// table) — an error row locally, a 422 from /v1/shard.
func TestOverBoundCellMemoryBounded(t *testing.T) {
	s := New(Options{Workers: 2})
	s.maxSweepSamples = 1
	geom := cluster.Config{Trials: 1, Ranks: 1024, Iterations: 8, Threads: 48, Seed: 9}
	tensor := uint64(geom.Samples()) * 8
	cell := SweepCell{App: "minife", Geometry: geom, Alpha: 0.05, LaggardThresholdSec: 1e-3}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	row := s.sweepCell(cell)
	runtime.ReadMemStats(&after)
	if row.Err != "" {
		t.Fatalf("static over-bound cell: err %q", row.Err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > tensor/4 {
		t.Errorf("over-bound cell allocated %d bytes; one trial's tensor is %d", alloc, tensor)
	}

	cell.Geometry = cluster.Config{Trials: 1, Ranks: 2048, Iterations: 1000, Threads: 32, Seed: 9}
	cell.DLB = dlb.Spec{Policy: dlb.PolicyLeWI}
	if row := s.sweepCell(cell); !strings.Contains(row.Err, "rebalanced trial") {
		t.Fatalf("rebalanced over-bound cell: error %q", row.Err)
	}
	resp := postJSON(t, newHTTPServer(t, s).URL+"/v1/shard", cell.ShardRequest())
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("rebalanced over-bound shard: status %s, want 422", resp.Status)
	}
}

// TestRebalancedCellUnderBoundAnswers pins that a rebalanced cell at or
// under the sample bound is answered, whatever its block table: a LeWI
// 1x1400x1000x2 cell (2.8M samples) keeps a 45 MB trial table, over the
// fold's 40 MiB state budget, and answers with the states it answered
// when such cells were read from the engine's dataset cache (their
// SHA-256 digests). Skipped with -short and under -race.
func TestRebalancedCellUnderBoundAnswers(t *testing.T) {
	if testing.Short() {
		t.Skip("2.8M-sample cell skipped with -short")
	}
	if raceEnabled {
		t.Skip("2.8M-sample cell skipped under -race")
	}
	const (
		wantMetrics = "bbe500be612a32caf1324dc137cc0f342b778d85775c2262876fb1aa084401d0"
		wantTable1  = "f790a6cb20896ee670e656c1e4bb4065d81823c341d19ac7c5342f8f8131062f"
	)
	geom := cluster.Config{Trials: 1, Ranks: 1400, Iterations: 1000, Threads: 2, Seed: 3}
	lewi := dlb.Spec{Policy: dlb.PolicyLeWI}
	req, err := ShardRequest{App: "minife", Geometry: &geom, DLB: &lewi, TrialHi: 1}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if geom.Samples() > maxBoundedShardSamples {
		t.Fatalf("%d samples, over the bound %d", geom.Samples(), maxBoundedShardSamples)
	}
	f, err := New(Options{Workers: 2}).runShard(req)
	if err != nil {
		t.Fatal(err)
	}
	macc, tacc := f.metrics[0], f.table1[0]
	digest := func(state RecordState) string {
		t.Helper()
		b, err := state.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	if got := digest(macc); got != wantMetrics {
		t.Errorf("metrics state digest %s, want %s", got, wantMetrics)
	}
	if got := digest(tacc); got != wantTable1 {
		t.Errorf("Table 1 state digest %s, want %s", got, wantTable1)
	}
}

// TestSweepZeroAxisEntriesMeanDefaults pins that an explicit zero on
// the alpha or laggard-threshold axis is the paper's default, as it is
// for a shard: the row equals the default grid's, echoed alpha and
// threshold included.
func TestSweepZeroAxisEntriesMeanDefaults(t *testing.T) {
	geom := cluster.Config{Trials: 2, Ranks: 2, Iterations: 20, Threads: 48, Seed: 3}
	row := func(req SweepRequest) SweepRow {
		t.Helper()
		rec := httptest.NewRecorder()
		body, _ := json.Marshal(req)
		New(Options{Workers: 2}).Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sweep", bytes.NewReader(body)))
		var r SweepRow
		if err := json.Unmarshal(bytes.TrimSpace(rec.Body.Bytes()), &r); err != nil {
			t.Fatalf("bad row %q: %v", rec.Body.String(), err)
		}
		if r.Err != "" {
			t.Fatal(r.Err)
		}
		return r
	}
	want := row(SweepRequest{Apps: []string{"minimd"}, Geometries: []cluster.Config{geom}})
	got := row(SweepRequest{
		Apps: []string{"minimd"}, Geometries: []cluster.Config{geom},
		Alphas: []float64{0}, LaggardThresholdsSec: []float64{0},
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("zero-axis row differs from the default grid's:\n got %+v\nwant %+v", got, want)
	}
}

// TestOverBoundCellRegistersOneTracker checks that an over-bound cell —
// a local sweep cell or a worker's /v1/shard — registers exactly one
// live tracker for its uncached fill, so it shows in
// /v1/progress, and retires it.
func TestOverBoundCellRegistersOneTracker(t *testing.T) {
	s := New(Options{Workers: 2})
	s.maxSweepSamples = 1
	ts := newHTTPServer(t, s)
	geom := cluster.Config{Trials: 3, Ranks: 2, Iterations: 6, Threads: 48, Seed: 21}
	check := func(what string, run func()) {
		t.Helper()
		before := s.Telemetry().Totals()
		run()
		after := s.Telemetry().Totals()
		if d := after.StudiesStarted - before.StudiesStarted; d != 1 {
			t.Errorf("%s registered %d trackers, want 1", what, d)
		}
		if d := after.StudiesFinished - before.StudiesFinished; d != 1 || after.ActiveStudies != 0 {
			t.Errorf("%s finished %d trackers with %d still active, want 1 and 0", what, d, after.ActiveStudies)
		}
		if d := after.Blocks - before.Blocks; d != int64(geom.Trials*geom.Ranks*geom.Iterations) {
			t.Errorf("%s tracked %d blocks, want %d", what, d, geom.Trials*geom.Ranks*geom.Iterations)
		}
	}
	check("local sweep cell", func() {
		if row := s.sweepCell(SweepCell{App: "minife", Geometry: geom, Alpha: 0.05, LaggardThresholdSec: 1e-3}); row.Err != "" {
			t.Fatal(row.Err)
		}
	})
	check("/v1/shard", func() {
		fetchShard(t, ts.URL, ShardRequest{App: "minife", Geometry: &geom, TrialLo: 0, TrialHi: geom.Trials})
	})
}

// TestAccumulatorStateBoundedAtValidation pins that trials x iterations,
// which the accumulator state grows with whatever the sample bound, is
// refused over maxTrialIterations when the shard request resolves —
// before anything is allocated for it: an error row from /v1/sweep and
// a 422 from /v1/shard for a few-byte body that would otherwise ask for
// gigabytes. HugeConfig still resolves.
func TestAccumulatorStateBoundedAtValidation(t *testing.T) {
	huge := cluster.HugeConfig()
	if _, err := (SweepCell{App: "minife", Geometry: huge}).ShardRequest().Resolve(); err != nil {
		t.Fatalf("HugeConfig refused: %v", err)
	}

	s := New(Options{Workers: 2})
	ts := newHTTPServer(t, s)
	geom := cluster.Config{Trials: 1, Ranks: 1, Iterations: 1000000, Threads: 48, Seed: 5}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{Apps: []string{"minife"}, Geometries: []cluster.Config{geom}})
	var row SweepRow
	decodeInto(t, resp, &row)
	if !strings.Contains(row.Err, "trial-iterations") {
		t.Fatalf("/v1/sweep row error %q, want the trial-iterations limit", row.Err)
	}
	cell := SweepCell{App: "minife", Geometry: geom}
	wantRejected(t, "shard", postJSON(t, ts.URL+"/v1/shard", cell.ShardRequest()),
		http.StatusUnprocessableEntity, "trial-iterations")
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16<<20 {
		t.Errorf("refusing the 1e6-iteration cell allocated %d bytes", alloc)
	}
}

// TestIterationWidthBoundedAtValidation pins that ranks x threads is
// refused over maxIterationSamples when the shard request resolves,
// before a fill starts: a ~100-byte cell with 2^40 ranks or 2^40
// threads (or both, whose product overflows int64) is an error row from
// /v1/sweep and a 422 from /v1/shard, and refusing it allocates nothing
// near one block or one finish time per rank. HugeConfig, a cell at the
// bound and TestOverBoundCellMemoryBounded's 1024 x 48 cell resolve.
func TestIterationWidthBoundedAtValidation(t *testing.T) {
	s := New(Options{Workers: 2})
	ts := newHTTPServer(t, s)
	for _, tc := range []struct {
		name           string
		ranks, threads int
		wantRejected   bool
	}{
		{"huge ranks", 1 << 40, 48, true},
		{"huge threads", 1, 1 << 40, true},
		{"both huge", 1 << 40, 1 << 40, true},
		{"one over", 1, maxIterationSamples + 1, true},
		{"at the bound", 1 << 10, 1 << 6, false},
		{"1024 ranks", 1024, 48, false},
		{"HugeConfig", cluster.HugeConfig().Ranks, cluster.HugeConfig().Threads, false},
	} {
		geom := cluster.Config{Trials: 1, Ranks: tc.ranks, Iterations: 1, Threads: tc.threads, Seed: 5}
		cell := SweepCell{App: "minife", Geometry: geom}
		_, err := cell.ShardRequest().Resolve()
		if got := err != nil; got != tc.wantRejected {
			t.Fatalf("%s: Resolve error %v, want rejected %v", tc.name, err, tc.wantRejected)
		}
		if !tc.wantRejected {
			continue
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{Apps: []string{"minife"}, Geometries: []cluster.Config{geom}})
		var row SweepRow
		decodeInto(t, resp, &row)
		if !strings.Contains(row.Err, "samples per trial-iteration") {
			t.Fatalf("%s: /v1/sweep row error %q, want the per-iteration limit", tc.name, row.Err)
		}
		wantRejected(t, tc.name, postJSON(t, ts.URL+"/v1/shard", cell.ShardRequest()),
			http.StatusUnprocessableEntity, "samples per trial-iteration")
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16<<20 {
			t.Errorf("%s: refusing the cell allocated %d bytes", tc.name, alloc)
		}
	}
}

// TestAccumulatorStatePerIterationBounded pins the per-iteration
// accumulator state maxTrialIterations's comment budgets: a 32-rank
// trial of 2000 iterations, folded through core.FoldReadings as an
// over-bound cell is, retains under
// 3 KiB per iteration once the samples are gone. The state is one
// quantile histogram per iteration (2 KiB of counts whatever the rank
// count) plus the trial's partials; the t-digests it replaced kept
// 21.6 KiB per iteration here. Skipped under -short and -race, like the
// HugeGeometry progress test.
func TestAccumulatorStatePerIterationBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("3M-sample study skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("3M-sample study skipped under -race")
	}
	geom := cluster.Config{Trials: 1, Ranks: 32, Iterations: 2000, Threads: 48, Seed: 5}
	model, err := workload.ByName("minife")
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	macc := analysis.NewMetricsAccumulator("minife", analysis.DefaultLaggardThresholdSec)
	tacc := analysis.NewTable1Accumulator("minife", normality.DefaultAlpha)
	if err := core.FoldReadings(model, geom, dlb.Spec{}, 0, 1, 0, false,
		[]*analysis.MetricsAccumulator{macc}, []*analysis.Table1Accumulator{tacc}, nil); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perIter := float64(after.HeapAlloc-before.HeapAlloc) / float64(geom.Iterations)
	t.Logf("retained %.2f KiB per iteration", perIter/1024)
	if perIter > 3<<10 {
		t.Errorf("accumulator state retains %.1f KiB per iteration, over 3 KiB", perIter/1024)
	}
	runtime.KeepAlive(macc)
	runtime.KeepAlive(tacc)
}

// TestSweepGroupSharesOneFill pins that the cells of a grid that differ
// only in alpha and laggard threshold share one fill: a 2-app x 3-alpha
// x 2-threshold grid registers one fill tracker per app, every row has
// the bits of the same cell analysed alone on a fresh server, and the
// cells of an alpha that does not resolve get their own error rows while
// the rest of their group answers.
func TestSweepGroupSharesOneFill(t *testing.T) {
	geom := cluster.Config{Trials: 3, Ranks: 2, Iterations: 10, Threads: 48, Seed: 31}
	req := SweepRequest{
		Apps: []string{"minife", "miniqmc"}, Geometries: []cluster.Config{geom},
		Alphas: []float64{0.05, 0.01, 1.5}, LaggardThresholdsSec: []float64{1e-3, 5e-4},
	}
	s := New(Options{Workers: 2})
	g, err := s.SweepGrid(req)
	if err != nil {
		t.Fatal(err)
	}
	before := s.Telemetry().Totals()
	rows := g.Rows(context.Background())
	if d := s.Telemetry().Totals().StudiesStarted - before.StudiesStarted; d != 2 {
		t.Errorf("the grid ran %d fills, want one per app (2)", d)
	}
	cells, err := req.Cells()
	if err != nil {
		t.Fatal(err)
	}
	ref := New(Options{Workers: 2})
	for i, c := range cells {
		want, got := ref.sweepCell(c), rows[i]
		if got.Index != i {
			t.Fatalf("row %d holds cell %d", i, got.Index)
		}
		if c.Alpha == 1.5 {
			if got.Err == "" || got.Err != want.Err {
				t.Errorf("cell %d: error %q, want %q", i, got.Err, want.Err)
			}
			continue
		}
		if got.Err != "" || want.Err != "" {
			t.Fatalf("cell %d errored: grouped %q, alone %q", i, got.Err, want.Err)
		}
		if !reflect.DeepEqual(metricBits(got), metricBits(want)) || got.Recommendation != want.Recommendation {
			t.Errorf("cell %d (alpha %g, laggard %g): grouped row differs from the cell alone", i, c.Alpha, c.LaggardThresholdSec)
		}
	}
}
