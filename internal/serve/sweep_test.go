package serve

import (
	"bytes"
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
	"earlybird/internal/dlb"
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

// TestSweepRowSameAtAnyCacheBound pins that the sweep cache bound sets
// memory only: a cell above it (uncached, filled in runs of two trials,
// or streamed block by block when one trial is over the bound) answers
// with the same bits as the same cell below it (read from the engine's
// columnar cache), the iteration IQR included, for every app.
func TestSweepRowSameAtAnyCacheBound(t *testing.T) {
	cached := New(Options{Workers: 2})
	geom := cluster.Config{Trials: 4, Ranks: 4, Iterations: 50, Threads: 48, Seed: 7}
	perTrial := geom.Samples() / geom.Trials
	for _, bound := range []int{2*perTrial + 1, 1} {
		streamed := New(Options{Workers: 2, MaxCachedSweepSamples: bound})
		for _, app := range []string{"minife", "minimd", "miniqmc"} {
			cell := SweepCell{
				App: app, Geometry: geom,
				Alpha: 0.05, LaggardThresholdSec: analysis.DefaultLaggardThresholdSec,
			}
			want, got := cached.sweepCell(cell), streamed.sweepCell(cell)
			if want.Err != "" || got.Err != "" {
				t.Fatalf("%s bound %d: errors %q / %q", app, bound, want.Err, got.Err)
			}
			if want.Streamed || !got.Streamed {
				t.Fatalf("%s bound %d: streamed flags %v / %v, want false / true", app, bound, want.Streamed, got.Streamed)
			}
			if !reflect.DeepEqual(metricBits(got), metricBits(want)) || got.Recommendation != want.Recommendation {
				t.Errorf("%s bound %d: over-bound row differs from the cached one:\n got %+v %+v %s\nwant %+v %+v %s",
					app, bound, got.Metrics, got.Table1, got.Recommendation, want.Metrics, want.Table1, want.Recommendation)
			}
		}
	}
}

// TestOverBoundCellMemoryBounded pins that a request cannot make the
// server hold more samples than the sweep bound: a static trial far
// over it streams with a small fraction of the trial's tensor
// allocated, and a rebalanced one, whose ranks fill together, is
// refused — an error row locally, a 422 from /v1/shard.
func TestOverBoundCellMemoryBounded(t *testing.T) {
	s := New(Options{Workers: 2, MaxCachedSweepSamples: 1})
	geom := cluster.Config{Trials: 1, Ranks: 1024, Iterations: 8, Threads: 48, Seed: 9}
	tensor := uint64(geom.Samples()) * 8
	cell := SweepCell{App: "minife", Geometry: geom, Alpha: 0.05, LaggardThresholdSec: 1e-3}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	row := s.sweepCell(cell)
	runtime.ReadMemStats(&after)
	if row.Err != "" || !row.Streamed {
		t.Fatalf("static over-bound cell: err %q, streamed %v", row.Err, row.Streamed)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > tensor/4 {
		t.Errorf("over-bound cell allocated %d bytes; one trial's tensor is %d", alloc, tensor)
	}

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
	s := New(Options{Workers: 2, MaxCachedSweepSamples: 1})
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
		if row := s.sweepCell(SweepCell{App: "minife", Geometry: geom, Alpha: 0.05, LaggardThresholdSec: 1e-3}); !row.Streamed {
			t.Fatal("expected the over-bound branch")
		}
	})
	check("/v1/shard", func() {
		if sr := fetchShard(t, ts.URL, ShardRequest{App: "minife", Geometry: &geom, TrialLo: 0, TrialHi: geom.Trials}); !sr.Streamed {
			t.Fatal("expected the over-bound branch")
		}
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
