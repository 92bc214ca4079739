package engine

import (
	"encoding/json"
	"math"
	"runtime"
	"testing"

	"earlybird/internal/cluster"
	"earlybird/internal/dlb"
	"earlybird/internal/trace"
	"earlybird/internal/workload"
)

// TestFillOnRecycledColumnMatchesFresh: a study analysed over a column
// the pool recycled is byte-equal to the same study over a fresh
// column, static and LeWI. The recycled column held another study's
// fill, poisoned with NaN so that every sample is stale: the fill
// overwrites every sample, so nothing stale reaches the answer. With
// one P, the column Fill releases is the one its next call draws.
func TestFillOnRecycledColumnMatchesFresh(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	e := New(1)
	geom := cluster.Config{Trials: 2, Ranks: 3, Iterations: 20, Threads: 48, Seed: 5}
	other := geom
	other.Seed = 6
	fills := int64(0)
	answer := func(r Result) []byte {
		t.Helper()
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		b, err := json.Marshal([]any{r.Metrics, r.Table1, r.Assessment})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, policy := range []dlb.Spec{{}, {Policy: dlb.PolicyLeWI}} {
		sp, err := Spec{App: "minife", Geometry: geom, DLB: policy}.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := cluster.RunColumnar(sp.Model, geom, sp.DLB, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := answer(sp.Analyze(fresh.Dataset()))

		// Another study's column goes back to the pool first. The race
		// detector's pool drops a quarter of its puts, so this retries.
		var col *trace.Columnar
		var release func()
		for attempt := 1; ; attempt++ {
			prev, free, err := e.Fill(workload.DefaultMiniMD(), other, policy)
			if err != nil {
				t.Fatal(err)
			}
			times := prev.TimesColumn()
			for i := range times {
				times[i] = math.NaN()
			}
			stale := &times[0]
			free()
			col, release, err = e.Fill(sp.Model, geom, sp.DLB)
			fills += 2
			if err != nil {
				t.Fatal(err)
			}
			if &col.TimesColumn()[0] == stale {
				break
			}
			release()
			if attempt == 20 {
				t.Fatalf("%s: no fill drew the released column", policy)
			}
		}
		if col.Fingerprint() != fresh.Fingerprint() {
			t.Errorf("%s: the recycled column's samples differ from a fresh fill's", policy)
		}
		got := answer(sp.Analyze(col.Dataset()))
		release()
		if string(got) != string(want) {
			t.Errorf("%s: the study over a recycled column differs from the study over a fresh one:\n got %s\nwant %s", policy, got, want)
		}
	}
	if n, ds := e.Executions(), e.CachedDatasets(); n != fills || ds != 0 {
		t.Errorf("%d executions and %d cached datasets, want %d fills and none cached", n, ds, fills)
	}
}

// TestPutColumnKeepsOnlyBoundedColumns pins the pool's bound: a column
// over one paper geometry goes to the collector, and a pooled column
// too short for a request is not handed out.
func TestPutColumnKeepsOnlyBoundedColumns(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	big := make([]float64, maxPooledColumn+1)
	putColumn(big)
	if got := getColumn(maxPooledColumn); &got[0] == &big[0] {
		t.Error("a column over maxPooledColumn was pooled")
	}
	small := make([]float64, 10)
	putColumn(small)
	if got := getColumn(11); len(got) != 11 || &got[0] == &small[0] {
		t.Error("a pooled column shorter than the request was handed out")
	}
	// The race detector's pool drops a quarter of its puts.
	for attempt := 1; ; attempt++ {
		putColumn(small)
		if got := getColumn(10); &got[0] == &small[0] {
			break
		}
		if attempt == 20 {
			t.Fatal("a pooled column that fits was not reused")
		}
	}
}
