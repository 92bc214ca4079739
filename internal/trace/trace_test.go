package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"earlybird/internal/omp"
	"earlybird/internal/simclock"
)

func TestRecorderComputeTime(t *testing.T) {
	v := simclock.NewVirtual()
	rec := NewRecorder(v, 2, 3)
	rec.Enter(0, 1, 1)
	v.Advance(26300 * time.Microsecond)
	rec.Exit(0, 1, 1)
	if got := rec.ComputeTime(0, 1); got != 26300*time.Microsecond {
		t.Fatalf("compute time = %v", got)
	}
	if rec.Iterations() != 2 || rec.Threads() != 3 {
		t.Fatal("geometry accessors wrong")
	}
}

// E13: the derived compute time must be invariant under per-core clock
// offsets — the paper's justification for using elapsed time instead of
// raw timestamps (Section 3.1).
func TestRecorderCancelsCoreSkew(t *testing.T) {
	v := simclock.NewVirtual()
	offsets := []time.Duration{0, 5 * time.Millisecond, -3 * time.Millisecond, 250 * time.Microsecond}
	skew := simclock.NewSkewed(v, offsets)
	rec := NewRecorder(skew, 1, 4)
	for th := 0; th < 4; th++ {
		rec.Enter(0, th, th)
	}
	v.Advance(10 * time.Millisecond)
	for th := 0; th < 4; th++ {
		rec.Exit(0, th, th)
	}
	for th := 0; th < 4; th++ {
		if got := rec.ComputeTime(0, th); got != 10*time.Millisecond {
			t.Errorf("thread %d: compute time %v, want 10ms (skew leaked)", th, got)
		}
	}
}

func TestRecorderSetComputeTime(t *testing.T) {
	rec := NewRecorder(simclock.NewVirtual(), 1, 2)
	rec.SetComputeTime(0, 0, 24740*time.Microsecond)
	if got := rec.ComputeTime(0, 0); got != 24740*time.Microsecond {
		t.Fatalf("got %v", got)
	}
	xs := rec.IterationSeconds(0)
	if len(xs) != 2 || xs[0] != 0.02474 || xs[1] != 0 {
		t.Fatalf("iteration seconds = %v", xs)
	}
}

func TestRecorderPanicsOutOfRange(t *testing.T) {
	rec := NewRecorder(simclock.NewVirtual(), 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	rec.Enter(1, 0, 0)
}

// Full Listing-1 pattern under the omp runtime with a real clock: each
// thread's compute time must be positive and roughly the time its share
// of work took.
func TestRecorderWithOMPListing1(t *testing.T) {
	const threads, iters = 4, 3
	pool := omp.NewPool(threads)
	defer pool.Close()
	clock := simclock.NewReal()
	rec := NewRecorder(clock, iters, threads)
	sink := make([]float64, threads)
	for iter := 0; iter < iters; iter++ {
		i := iter
		pool.Parallel(func(tc *omp.ThreadContext) {
			th := tc.ThreadNum()
			tc.Barrier()
			rec.Enter(i, th, th)
			tc.For(400, omp.Static, 0, func(j int) {
				s := 0.0
				for k := 0; k < 2000; k++ {
					s += float64(k^j) * 1e-9
				}
				sink[th] += s
			})
			rec.Exit(i, th, th)
			tc.Barrier()
		})
	}
	for iter := 0; iter < iters; iter++ {
		for th := 0; th < threads; th++ {
			ct := rec.ComputeTime(iter, th)
			if ct <= 0 {
				t.Errorf("iter %d thread %d: compute time %v not positive", iter, th, ct)
			}
			if ct > 5*time.Second {
				t.Errorf("iter %d thread %d: compute time %v implausibly large", iter, th, ct)
			}
		}
	}
}

func TestDatasetGeometryAndAggregations(t *testing.T) {
	d := NewDataset("minife", 2, 3, 4, 5)
	if d.NumSamples() != 2*3*4*5 {
		t.Fatalf("NumSamples = %d", d.NumSamples())
	}
	if d.NumProcessIterations() != 2*3*4 {
		t.Fatalf("NumProcessIterations = %d", d.NumProcessIterations())
	}
	// Fill with a recognisable pattern.
	val := 0.0
	d.EachProcessIteration(func(trial, rank, iter int, xs []float64) {
		for th := range xs {
			xs[th] = val
			val++
		}
	})
	if got := len(d.AllSamples()); got != d.NumSamples() {
		t.Fatalf("AllSamples length %d", got)
	}
	it := d.IterationSamples(2)
	if len(it) != 2*3*5 {
		t.Fatalf("IterationSamples length %d", len(it))
	}
	pi := d.ProcessIteration(1, 2, 3)
	if len(pi) != 5 {
		t.Fatalf("ProcessIteration length %d", len(pi))
	}
}

func TestDatasetSetFromRecorder(t *testing.T) {
	v := simclock.NewVirtual()
	rec := NewRecorder(v, 2, 3)
	for i := 0; i < 2; i++ {
		for th := 0; th < 3; th++ {
			rec.SetComputeTime(i, th, time.Duration(i*3+th)*time.Millisecond)
		}
	}
	d := NewDataset("x", 1, 1, 2, 3)
	d.SetFromRecorder(0, 0, rec)
	if d.Times[0][0][1][2] != 0.005 {
		t.Fatalf("copied value = %v", d.Times[0][0][1][2])
	}
}

func TestDatasetSetFromRecorderGeometryMismatchPanics(t *testing.T) {
	rec := NewRecorder(simclock.NewVirtual(), 2, 3)
	d := NewDataset("x", 1, 1, 2, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.SetFromRecorder(0, 0, rec)
}

func TestDatasetCSV(t *testing.T) {
	d := NewDataset("md", 1, 1, 1, 2)
	d.Times[0][0][0][0] = 0.024
	d.Times[0][0][0][1] = 0.025
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d", len(lines))
	}
	if lines[0] != "app,trial,rank,iteration,thread,compute_seconds" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != "md,0,0,0,0,0.024" {
		t.Fatalf("row = %q", lines[1])
	}
}

func TestDatasetJSONRoundTrip(t *testing.T) {
	d := NewDataset("qmc", 2, 2, 2, 2)
	d.Times[1][1][1][1] = 0.06091
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.App != "qmc" || back.Times[1][1][1][1] != 0.06091 {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

func TestReadJSONRejectsBadGeometry(t *testing.T) {
	bad := `{"app":"x","trials":2,"ranks":1,"iterations":1,"threads":1,"times":[[[[1.0]]]]}`
	if _, err := ReadJSON(strings.NewReader(bad)); err == nil {
		t.Fatal("expected geometry validation error")
	}
	if _, err := ReadJSON(strings.NewReader("{")); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestValidateDeepMismatch(t *testing.T) {
	d := NewDataset("x", 1, 1, 1, 2)
	d.Times[0][0][0] = d.Times[0][0][0][:1] // truncate threads
	if err := d.Validate(); err == nil {
		t.Fatal("expected thread-count mismatch error")
	}
}

func TestValidateRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		d := NewDataset("x", 1, 2, 2, 3)
		d.Times[0][1][1][2] = v
		err := d.Validate()
		if err == nil {
			t.Errorf("%v: accepted", v)
			continue
		}
		if !strings.Contains(err.Error(), "trial 0 rank 1 iter 1 thread 2") {
			t.Errorf("%v: error %q does not locate the sample", v, err)
		}
	}
}
