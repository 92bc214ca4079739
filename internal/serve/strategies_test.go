package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"earlybird/internal/cluster"
	"earlybird/internal/trace"
)

// defaultGridSize is the strategy count of the default grid: bulk and
// fine-grained anchors, four binned timeouts, one EWMA alpha, hybrid and
// laggard-aware.
const defaultGridSize = 2 + 4 + 1 + 2

func TestStrategiesCoalescingSingleExecution(t *testing.T) {
	views := trace.NestedViews()
	s, ts := newTestServer(t)
	req := StrategiesRequest{Apps: []string{"minife"}, Geometries: []cluster.Config{testGeom()}}

	const n = 8
	var wg sync.WaitGroup
	responses := make([]StrategiesResponse, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := postJSON(t, ts.URL+"/v1/strategies", req)
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			errs[i] = json.NewDecoder(resp.Body).Decode(&responses[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}

	// N identical concurrent requests: one dataset generation, one cell
	// evaluation; everyone else joined the flight or hit the cache.
	if got := s.Engine().Executions(); got != 1 {
		t.Errorf("engine executions = %d, want 1 for %d identical requests", got, n)
	}
	if got := s.stratSources.executed.Load(); got != 1 {
		t.Errorf("executed strategy cells = %d, want 1", got)
	}
	if shared := s.stratSources.coalesced.Load() + s.stratSources.lruHits.Load(); shared != n-1 {
		t.Errorf("coalesced+cache answers = %d, want %d", shared, n-1)
	}
	// The whole evaluation stayed on the cursor path.
	if got := (trace.NestedViews() - views); got != 0 {
		t.Errorf("nested views = %d, want 0 (strategy lab materialised the tensor)", got)
	}
	// Every response carries the identical sweep.
	for i := 0; i < n; i++ {
		if len(responses[i].Rows) != 1 || responses[i].Failed != 0 {
			t.Fatalf("response %d: %d rows, %d failed", i, len(responses[i].Rows), responses[i].Failed)
		}
		row := responses[i].Rows[0]
		if len(row.Results) != defaultGridSize {
			t.Fatalf("response %d has %d strategy results, want %d", i, len(row.Results), defaultGridSize)
		}
		if row.Best == "" || row.BestFinishSec <= 0 {
			t.Fatalf("response %d has empty frontier: %+v", i, row.Sweep)
		}
		if row.Best != responses[0].Rows[0].Best || row.BestFinishSec != responses[0].Rows[0].BestFinishSec {
			t.Fatalf("response %d frontier diverged", i)
		}
	}
}

func TestStrategiesResultCacheAndGridHash(t *testing.T) {
	s, ts := newTestServer(t)
	base := StrategiesRequest{Apps: []string{"minimd"}, Geometries: []cluster.Config{testGeom()}}

	var first, second, third StrategiesResponse
	decodeInto(t, postJSON(t, ts.URL+"/v1/strategies", base), &first)
	if src := first.Rows[0].Source; src != SourceExecuted {
		t.Errorf("first source = %q, want executed", src)
	}
	decodeInto(t, postJSON(t, ts.URL+"/v1/strategies", base), &second)
	if src := second.Rows[0].Source; src != SourceResultCache {
		t.Errorf("repeat source = %q, want result-cache", src)
	}
	if second.Rows[0].Best != first.Rows[0].Best || second.Rows[0].BestFinishSec != first.Rows[0].BestFinishSec {
		t.Error("cached frontier diverged from executed frontier")
	}

	// A different strategy grid is a different result-cache key over the
	// same dataset. No dataset outlives its request, so the second cell
	// fills again: two fills for the two grids.
	narrowed := base
	narrowed.TimeoutsSec = []float64{1e-3}
	decodeInto(t, postJSON(t, ts.URL+"/v1/strategies", narrowed), &third)
	if src := third.Rows[0].Source; src != SourceExecuted {
		t.Errorf("new-grid source = %q, want executed", src)
	}
	if got := len(third.Rows[0].Results); got != 2+1+1+2 {
		t.Errorf("narrowed grid has %d results, want %d", got, 2+1+1+2)
	}
	if got := s.Engine().Executions(); got != 2 {
		t.Errorf("engine executions = %d, want 2 (one fill per executed grid)", got)
	}
}

func TestStrategiesNDJSONStreamsOnCursorPath(t *testing.T) {
	views := trace.NestedViews()
	s, ts := newTestServer(t)
	req := StrategiesRequest{
		Apps:       []string{"minife", "minimd", "miniqmc"},
		Geometries: []cluster.Config{testGeom()},
		Stream:     true,
	}
	resp := postJSON(t, ts.URL+"/v1/strategies", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content-type = %q", ct)
	}
	if cells := resp.Header.Get("X-Strategy-Cells"); cells != "3" {
		t.Errorf("X-Strategy-Cells = %q, want 3", cells)
	}
	if resp.ContentLength >= 0 {
		t.Errorf("response has Content-Length %d; want a streamed body", resp.ContentLength)
	}

	seen := map[int]StrategyRow{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var row StrategyRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if row.Err != "" {
			t.Fatalf("cell %d failed: %s", row.Index, row.Err)
		}
		seen[row.Index] = row
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 {
		t.Fatalf("got %d rows, want 3", len(seen))
	}
	for i := 0; i < 3; i++ {
		row, ok := seen[i]
		if !ok {
			t.Fatalf("missing row %d", i)
		}
		if row.Best == "" || len(row.Results) != defaultGridSize {
			t.Errorf("row %d incomplete: best %q, %d results", i, row.Best, len(row.Results))
		}
		if row.Source != SourceExecuted {
			t.Errorf("row %d source = %q, want executed", i, row.Source)
		}
	}

	// The acceptance criterion: the whole sweep ran on the columnar
	// cursor path — no cell ever built the nested tensor view.
	if got := (trace.NestedViews() - views); got != 0 {
		t.Errorf("nested views = %d after strategy sweep, want 0", got)
	}
	if got := s.Engine().Executions(); got != 3 {
		t.Errorf("engine executions = %d, want 3", got)
	}
}

func TestStrategiesValidation(t *testing.T) {
	s, ts := newTestServer(t)

	// No apps.
	resp := postJSON(t, ts.URL+"/v1/strategies", StrategiesRequest{})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("no apps: status %d, want 400", resp.StatusCode)
	}

	// Invalid grid axes.
	resp = postJSON(t, ts.URL+"/v1/strategies", StrategiesRequest{Apps: []string{"minife"}, TimeoutsSec: []float64{-1}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative timeout: status %d, want 400", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/v1/strategies", StrategiesRequest{Apps: []string{"minife"}, EWMAAlphas: []float64{1.5}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("alpha out of range: status %d, want 400", resp.StatusCode)
	}

	// Unknown geometry name.
	resp = postJSON(t, ts.URL+"/v1/strategies", StrategiesRequest{Apps: []string{"minife"}, GeometryNames: []string{"galactic"}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown geometry name: status %d, want 400", resp.StatusCode)
	}

	// Unknown app is a per-cell failure, mirroring /v1/sweep.
	var perCell StrategiesResponse
	decodeInto(t, postJSON(t, ts.URL+"/v1/strategies", StrategiesRequest{
		Apps: []string{"minife", "nosuchapp"}, Geometries: []cluster.Config{testGeom()},
	}), &perCell)
	if perCell.Failed != 1 || perCell.Rows[1].Err == "" || perCell.Rows[0].Err != "" {
		t.Errorf("unknown app: failed=%d rows=%+v, want exactly cell 1 to fail", perCell.Failed, perCell.Rows)
	}

	// Oversized geometry is a per-cell failure naming the limit.
	huge := cluster.Config{Trials: 1000, Ranks: 100, Iterations: 10000, Threads: 100, Seed: 1}
	var capResp StrategiesResponse
	decodeInto(t, postJSON(t, ts.URL+"/v1/strategies", StrategiesRequest{
		Apps: []string{"minife"}, Geometries: []cluster.Config{huge},
	}), &capResp)
	if capResp.Failed != 1 || !strings.Contains(capResp.Rows[0].Err, "limit") {
		t.Errorf("oversized geometry: %+v, want a limit error", capResp.Rows)
	}
	if got := s.Engine().Executions(); got != 1 {
		t.Errorf("engine executions = %d, want 1 (failures must not generate datasets)", got)
	}
}

// TestStrategiesShutdownMidStream: a graceful Shutdown issued while an
// NDJSON strategy stream is in flight drains the request — every cell's
// row arrives, the stream terminates cleanly, and Serve returns
// http.ErrServerClosed.
func TestStrategiesShutdownMidStream(t *testing.T) {
	views := trace.NestedViews()
	s := New(Options{Workers: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()

	// Six cells on one worker so the stream is still in flight when the
	// shutdown lands.
	g2 := testGeom()
	g2.Seed = 2
	req := StrategiesRequest{
		Apps:       []string{"minife", "minimd", "miniqmc"},
		Geometries: []cluster.Config{testGeom(), g2},
		Stream:     true,
		Workers:    1,
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+ln.Addr().String()+"/v1/strategies", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	rows := 0
	shutdownErr := make(chan error, 1)
	var once sync.Once
	for sc.Scan() {
		var row StrategyRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("bad NDJSON line after %d rows: %v", rows, err)
		}
		if row.Err != "" {
			t.Fatalf("cell %d failed: %s", row.Index, row.Err)
		}
		rows++
		// First row in hand: shut the server down mid-stream.
		once.Do(func() {
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				shutdownErr <- s.Shutdown(ctx)
			}()
		})
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream did not close cleanly after %d rows: %v", rows, err)
	}
	if rows != 6 {
		t.Errorf("got %d rows, want all 6 (shutdown must drain the in-flight stream)", rows)
	}
	if err := <-shutdownErr; err != nil {
		t.Errorf("shutdown: %v", err)
	}
	select {
	case err := <-served:
		if err != http.ErrServerClosed {
			t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
	// And the drained stream still never materialised the tensor.
	if got := (trace.NestedViews() - views); got != 0 {
		t.Errorf("nested views = %d, want 0", got)
	}
}
