package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"earlybird/internal/cluster"
	"earlybird/internal/core"
	"earlybird/internal/dlb"
	"earlybird/internal/serve"
)

// TestFleetSweepIQRBitIdentical is the one-IQR guarantee: for every app
// at the paper's trial shape (2×8×200×48, seeds 1–3), a local /v1/sweep
// row, the fleet's merged rows at two and three shards per cell and
// core.StreamStudy give the same AppMetrics bits — the histogram-
// estimated IQR fields included — and the same Table 1 row. A
// two-trial cell splits into at most two shards, so one three-trial
// cell per app makes the three-shard split real.
func TestFleetSweepIQRBitIdentical(t *testing.T) {
	geoms := []cluster.Config{
		{Trials: 2, Ranks: 8, Iterations: 200, Threads: 48, Seed: 1},
		{Trials: 2, Ranks: 8, Iterations: 200, Threads: 48, Seed: 2},
		{Trials: 2, Ranks: 8, Iterations: 200, Threads: 48, Seed: 3},
		{Trials: 3, Ranks: 8, Iterations: 200, Threads: 48, Seed: 1},
	}
	req := serve.SweepRequest{Apps: []string{"minife", "minimd", "miniqmc"}, Geometries: geoms}
	cells, err := req.Cells()
	if err != nil {
		t.Fatal(err)
	}

	_, local := newWorker(t)
	body, _ := json.Marshal(req)
	resp, err := http.Post(local.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	want := map[int]serve.SweepRow{}
	for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
		var r serve.SweepRow
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		if r.Err != "" {
			t.Fatalf("local cell %d: %s", r.Index, r.Err)
		}
		want[r.Index] = r
	}
	if len(want) != len(cells) {
		t.Fatalf("local sweep answered %d of %d cells", len(want), len(cells))
	}

	_, w1 := newWorker(t)
	_, w2 := newWorker(t)
	_, w3 := newWorker(t)
	for _, shards := range []int{2, 3} {
		f := newFleet(t, Options{Peers: []string{w1.URL, w2.URL, w3.URL}, ShardsPerCell: shards})
		rows := collectSweep(t, f, req)
		for _, cell := range cells {
			got, w := rows[cell.Index], want[cell.Index]
			if len(got) != 1 {
				t.Fatalf("%d shards: cell %d delivered %d times", shards, cell.Index, len(got))
			}
			g := got[0]
			if g.Shards != min(shards, cell.Geometry.Trials) {
				t.Errorf("%d shards: cell %d ran as %d shards", shards, cell.Index, g.Shards)
			}
			if g.Metrics != w.Metrics || g.Table1 != w.Table1 {
				t.Errorf("%d shards: %s %+v: fleet row differs from the local one:\nfleet %+v %+v\nlocal %+v %+v",
					shards, cell.App, cell.Geometry, g.Metrics, g.Table1, w.Metrics, w.Table1)
			}
		}
	}

	for _, cell := range cells {
		res, err := core.StreamStudy(core.Options{App: cell.App, Geometry: cell.Geometry})
		if err != nil {
			t.Fatal(err)
		}
		w := want[cell.Index]
		if res.Metrics != w.Metrics || res.Table1 != w.Table1 {
			t.Errorf("%s %+v: StreamStudy differs from the sweep row:\nstream %+v %+v\nsweep  %+v %+v",
				cell.App, cell.Geometry, res.Metrics, res.Table1, w.Metrics, w.Table1)
		}
	}
}

// TestStreamStudyMatchesSweepRowUnderEveryPolicy: StreamStudy folds
// each trial's blocks in cursor order whatever order the fill makes
// them in, so under a rebalancing policy too — whose fill walks a
// trial iteration by iteration — its Metrics and Table1 are the bits
// of the cell's local /v1/sweep row.
func TestStreamStudyMatchesSweepRowUnderEveryPolicy(t *testing.T) {
	geom := cluster.Config{Trials: 3, Ranks: 4, Iterations: 40, Threads: 48, Seed: 5}
	policies := []dlb.Spec{{}, {Policy: dlb.PolicyLeWI}, {Policy: dlb.PolicyDROM, ReactionIters: dlb.DefaultReactionIters}}
	req := serve.SweepRequest{Apps: []string{"minife", "minimd", "miniqmc"}, Geometries: []cluster.Config{geom}, DLBs: policies}
	_, local := newWorker(t)
	body, _ := json.Marshal(req)
	resp, err := http.Post(local.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rows := 0
	for sc := bufio.NewScanner(resp.Body); sc.Scan(); rows++ {
		var r serve.SweepRow
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		if r.Err != "" {
			t.Fatalf("cell %d: %s", r.Index, r.Err)
		}
		res, err := core.StreamStudy(core.Options{App: r.App, Geometry: r.Geometry, Policy: core.PolicySpec{DLB: r.DLB}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Metrics != r.Metrics || res.Table1 != r.Table1 {
			t.Errorf("%s %s: StreamStudy differs from the sweep row:\nstream %+v %+v\nsweep  %+v %+v",
				r.App, r.DLB, res.Metrics, res.Table1, r.Metrics, r.Table1)
		}
	}
	if rows != 3*len(policies) {
		t.Fatalf("sweep answered %d of %d cells", rows, 3*len(policies))
	}
}
