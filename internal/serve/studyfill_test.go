package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"weak"

	"earlybird/internal/cluster"
	"earlybird/internal/dlb"
	"earlybird/internal/engine"
	"earlybird/internal/workload"
)

// postRecorded sends one request body through the server's handler.
func postRecorded(t *testing.T, s *Server, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b)))
	return rec
}

// TestCampaignGroupSharesOneFill pins one fill per distinct dataset
// within a request: a campaign of 1 app x 3 alphas x 2 laggard
// thresholds x 2 bin timeouts fills once, every entry is byte-equal to
// the same spec's /v1/study on a fresh server, and exactly one entry
// reports the fill as its own. An entry whose alpha does not resolve
// gets its own error while the rest of its group answers.
func TestCampaignGroupSharesOneFill(t *testing.T) {
	geom := cluster.Config{Trials: 2, Ranks: 2, Iterations: 15, Threads: 48, Seed: 41}
	var specs []StudySpec
	for _, alpha := range []float64{0.05, 0.01, 0.1} {
		for _, laggard := range []float64{1e-3, 5e-4} {
			for _, timeout := range []float64{1e-3, 2e-3} {
				specs = append(specs, StudySpec{App: "miniqmc", Geometry: &geom,
					Policy: &PolicySpec{Alpha: alpha, LaggardThresholdSec: laggard, BinTimeoutSec: timeout}})
			}
		}
	}
	bad := len(specs) / 2
	specs = append(specs[:bad:bad], append([]StudySpec{{App: "miniqmc", Geometry: &geom,
		Policy: &PolicySpec{Alpha: 1.5}}}, specs[bad:]...)...)

	s := New(Options{Workers: 4})
	rec := postRecorded(t, s, "/v1/campaign", CampaignRequest{Specs: specs})
	if rec.Code != http.StatusOK {
		t.Fatalf("campaign: status %d: %s", rec.Code, rec.Body)
	}
	var out CampaignResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if n := s.Engine().Executions(); n != 1 {
		t.Errorf("the campaign ran %d fills, want 1", n)
	}
	if out.Failed != 1 || len(out.Results) != len(specs) {
		t.Fatalf("%d results, %d failed; want %d and 1", len(out.Results), out.Failed, len(specs))
	}
	if e := out.Results[bad]; e.Index != bad || !strings.Contains(e.Err, "alpha") {
		t.Errorf("entry %d: index %d, error %q; want its own alpha error", bad, e.Index, e.Err)
	}

	alone := New(Options{Workers: 1})
	own := 0
	for i, e := range out.Results {
		if i == bad {
			continue
		}
		if e.Index != i || e.Err != "" || e.Source != SourceExecuted {
			t.Fatalf("entry %d: index %d, source %q, error %q", i, e.Index, e.Source, e.Err)
		}
		if !e.DatasetCacheHit {
			own++
		}
		e.DatasetCacheHit = false
		var got bytes.Buffer
		if err := encodeJSON(&got, e.StudyResponse); err != nil {
			t.Fatal(err)
		}
		want := postRecorded(t, alone, "/v1/study", specs[i])
		if want.Code != http.StatusOK {
			t.Fatalf("entry %d alone: status %d: %s", i, want.Code, want.Body)
		}
		if !bytes.Equal(got.Bytes(), want.Body.Bytes()) {
			t.Errorf("entry %d differs from its own /v1/study:\n got %s\nwant %s", i, got.Bytes(), want.Body.Bytes())
		}
	}
	if own != 1 {
		t.Errorf("%d entries report the fill as their own, want 1", own)
	}
}

// TestDatasetBackedStudyKeepsItsDataset: the column pool takes back
// only the columns the server filled. Two studies over a caller's
// dataset, then a fill of the same size: with one P the fill would draw
// the caller's column had a study released it, and overwrite it.
func TestDatasetBackedStudyKeepsItsDataset(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	geom := cluster.Config{Trials: 2, Ranks: 2, Iterations: 15, Threads: 48, Seed: 43}
	col, err := cluster.RunColumnar(workload.DefaultMiniFE(), geom, dlb.Spec{}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	ds := col.Dataset()
	before := ds.Fingerprint()

	other := geom
	other.Seed = 44
	var column weak.Pointer[float64]
	specs := []engine.Spec{
		{Dataset: ds},
		{Dataset: ds, Alpha: 0.01},
		{Model: captureModel{workload.DefaultMiniFE(), &column}, Geometry: other},
	}
	s := New(Options{Workers: 1})
	rows := studyGrid(s, len(specs), 1,
		func(i int) (engine.Spec, error) { return specs[i], nil },
		func(_ int, resp StudyResponse, err error) error { return err },
	).Rows(context.Background())
	for i, err := range rows {
		if err != nil {
			t.Fatalf("study %d: %v", i, err)
		}
	}
	if column.Value() == &ds.Times[0][0][0][0] {
		t.Error("the fill drew the caller's column from the pool")
	}
	if ds.Fingerprint() != before {
		t.Error("the caller's dataset changed under the server")
	}
	if n := s.Engine().Executions(); n != 1 {
		t.Errorf("%d fills, want 1: dataset-backed studies fill nothing", n)
	}
}

// TestPooledColumnConcurrentStudiesMatchSerial: 16 distinct studies at
// once on a 4-worker server, static and LeWI, each filling a pooled
// column while others release theirs, answer byte for byte what a
// 1-worker server answers them one at a time.
func TestPooledColumnConcurrentStudiesMatchSerial(t *testing.T) {
	const n = 16
	apps := []string{"minife", "minimd", "miniqmc"}
	specs := make([]StudySpec, n)
	for i := range specs {
		g := cluster.Config{Trials: 2, Ranks: 2, Iterations: 20, Threads: 48, Seed: uint64(100 + i)}
		policy := dlb.Spec{}
		if i%2 == 1 {
			policy.Policy = dlb.PolicyLeWI
		}
		specs[i] = StudySpec{App: apps[i%len(apps)], Geometry: &g, Policy: &PolicySpec{DLB: &policy}}
	}

	serial := New(Options{Workers: 1})
	want := make([][]byte, n)
	for i, sp := range specs {
		rec := postRecorded(t, serial, "/v1/study", sp)
		if rec.Code != http.StatusOK {
			t.Fatalf("serial study %d: status %d: %s", i, rec.Code, rec.Body)
		}
		want[i] = rec.Body.Bytes()
	}

	s := New(Options{Workers: 4})
	got := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, err := json.Marshal(specs[i])
			if err != nil {
				errs[i] = err
				return
			}
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/study", bytes.NewReader(b)))
			if rec.Code != http.StatusOK {
				errs[i] = fmt.Errorf("status %d: %s", rec.Code, rec.Body)
			}
			got[i] = rec.Body.Bytes()
		}()
	}
	wg.Wait()
	for i := range specs {
		if errs[i] != nil {
			t.Fatalf("concurrent study %d: %v", i, errs[i])
		}
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("concurrent study %d differs from the serial one:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
	if e := s.Engine().Executions(); e != n {
		t.Errorf("%d fills, want %d", e, n)
	}
}

// decliningFleet is a WholeDispatcher with no healthy worker: it
// declines every cell and study, counting the studies offered.
type decliningFleet struct{ offered atomic.Int64 }

func (f *decliningFleet) DispatchCell(context.Context, SweepCell) (SweepRow, bool) {
	return SweepRow{}, false
}

func (f *decliningFleet) Snapshot() FleetSnapshot { return FleetSnapshot{} }

func (f *decliningFleet) DispatchWhole(context.Context, uint64, string, any, any) bool {
	f.offered.Add(1)
	return false
}

// TestDeclinedWholeStudiesShareOneFill: campaign entries that travel
// whole to a fleet are each offered to it on their own, and when the
// fleet declines them all, the ones over one dataset answer locally on
// one fill, as they would with no fleet.
func TestDeclinedWholeStudiesShareOneFill(t *testing.T) {
	geom := cluster.Config{Trials: 2, Ranks: 2, Iterations: 12, Threads: 48, Seed: 47}
	var specs []StudySpec
	for _, alpha := range []float64{0.05, 0.01, 0.1} {
		specs = append(specs, StudySpec{App: "minife", Geometry: &geom, Policy: &PolicySpec{Alpha: alpha}})
	}
	fleet := &decliningFleet{}
	s := New(Options{Workers: 2, Fleet: fleet})
	rec := postRecorded(t, s, "/v1/campaign", CampaignRequest{Specs: specs})
	if rec.Code != http.StatusOK {
		t.Fatalf("campaign: status %d: %s", rec.Code, rec.Body)
	}
	var out CampaignResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Failed != 0 || len(out.Results) != len(specs) {
		t.Fatalf("%d results, %d failed; want %d and 0", len(out.Results), out.Failed, len(specs))
	}
	for i, e := range out.Results {
		if e.Federated || e.Source != SourceExecuted {
			t.Errorf("entry %d: federated %v, source %q; want a local execution", i, e.Federated, e.Source)
		}
	}
	if n := fleet.offered.Load(); n != int64(len(specs)) {
		t.Errorf("the fleet was offered %d studies, want %d", n, len(specs))
	}
	if n := s.fleetFallbacks.Load(); n != int64(len(specs)) {
		t.Errorf("%d local fallbacks, want %d", n, len(specs))
	}
	if n := s.Engine().Executions(); n != 1 {
		t.Errorf("the declined studies ran %d fills, want 1", n)
	}
}
