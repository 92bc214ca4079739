// Dynamic membership tests: join/leave/lease semantics on the Fleet
// itself, the coordinator's HTTP endpoints end to end, and lease-expiry
// eviction by the probe loop.

package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"earlybird/internal/cluster"
	"earlybird/internal/serve"
)

func TestJoinRequiresDynamic(t *testing.T) {
	f := newFleet(t, Options{Peers: []string{"http://a:1"}})
	if _, err := f.Join("http://b:2", 0); err == nil {
		t.Fatal("static fleet accepted a join")
	}
}

func TestJoinLeaveAndLeases(t *testing.T) {
	f := newFleet(t, Options{Peers: []string{"http://static:1"}, Dynamic: true, LeaseTTL: 100 * time.Millisecond})

	if _, err := f.Join("not-a-url", 0); err == nil {
		t.Error("invalid URL joined")
	}
	lease, err := f.Join("http://dyn:2", 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if lease != 100*time.Millisecond {
		t.Errorf("lease = %v, want the configured TTL", lease)
	}
	if got := f.Workers(); len(got) != 2 || got[1] != "http://dyn:2" {
		t.Fatalf("workers after join: %v", got)
	}

	// Re-joining renews (a second lease deadline strictly later), revives
	// health, and updates capacity.
	for _, w := range f.snapshotWorkers() {
		if w.url == "http://dyn:2" {
			if w.capacity() != 0.8 {
				t.Errorf("joined capacity %v, want 0.8", w.capacity())
			}
			w.healthy.Store(false)
		}
	}
	first := f.snapshotWorkers()[1].leaseUntil.Load()
	time.Sleep(5 * time.Millisecond)
	if _, err := f.Join("http://dyn:2", 0); err != nil {
		t.Fatal(err)
	}
	dyn := f.snapshotWorkers()[1]
	if dyn.leaseUntil.Load() <= first {
		t.Error("re-join did not renew the lease")
	}
	if !dyn.healthy.Load() {
		t.Error("re-join did not revive the worker")
	}

	// Joining a static peer refreshes it without making it expirable.
	if _, err := f.Join("http://static:1", 0); err != nil {
		t.Fatal(err)
	}
	if f.snapshotWorkers()[0].leaseUntil.Load() != 0 {
		t.Error("static peer became lease-bound")
	}

	// Eviction removes only expired dynamic leases; static peers never go.
	if n := f.EvictExpired(time.Now()); n != 0 {
		t.Errorf("evicted %d before expiry", n)
	}
	if n := f.EvictExpired(time.Now().Add(time.Hour)); n != 1 {
		t.Errorf("evicted %d expired leases, want 1", n)
	}
	if got := f.Workers(); len(got) != 1 || got[0] != "http://static:1" {
		t.Fatalf("workers after eviction: %v", got)
	}
	if f.Snapshot().LeaseEvictions != 1 {
		t.Errorf("eviction counter %d", f.Snapshot().LeaseEvictions)
	}

	// Leave deregisters immediately and is idempotent.
	if _, err := f.Join("http://dyn:2", 0); err != nil {
		t.Fatal(err)
	}
	if !f.Leave("http://dyn:2/") {
		t.Error("leave of a registered worker returned false")
	}
	if f.Leave("http://dyn:2") {
		t.Error("second leave returned true")
	}
	if got := f.Workers(); len(got) != 1 {
		t.Fatalf("workers after leave: %v", got)
	}
}

func TestDynamicFleetBootsEmpty(t *testing.T) {
	f := newFleet(t, Options{Dynamic: true})
	if n := len(f.Workers()); n != 0 {
		t.Fatalf("empty dynamic fleet has %d workers", n)
	}
	if cap(f.sem) != dynamicInFlight {
		t.Errorf("in-flight bound %d, want %d", cap(f.sem), dynamicInFlight)
	}
	if _, ok := f.DispatchCell(context.Background(), serve.SweepCell{App: "minife", Geometry: fleetGeom(), Alpha: 0.05, LaggardThresholdSec: 0.001}); ok {
		t.Error("empty fleet placed a cell")
	}
}

// TestJoinEndpointsEndToEnd drives the full protocol over HTTP: a
// worker joins a dynamic coordinator, serves a federated sweep, then
// leaves and the coordinator falls back to local execution.
func TestJoinEndpointsEndToEnd(t *testing.T) {
	_, w1 := newWorker(t)
	f := newFleet(t, Options{Dynamic: true, LeaseTTL: 30 * time.Second})
	coord := serve.New(serve.Options{Workers: 2, Fleet: f})
	cts := httptest.NewServer(coord.Handler())
	t.Cleanup(cts.Close)

	postJSON := func(path string, body any) *http.Response {
		t.Helper()
		buf, _ := json.Marshal(body)
		resp, err := http.Post(cts.URL+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Malformed joins.
	if resp := postJSON("/v1/fleet/join", serve.FleetJoinRequest{}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("join without url: %d, want 400", resp.StatusCode)
	}
	if resp := postJSON("/v1/fleet/join", serve.FleetJoinRequest{URL: "nope"}); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("join with bad url: %d, want 422", resp.StatusCode)
	}

	// The worker joins and the sweep federates to it.
	resp := postJSON("/v1/fleet/join", serve.FleetJoinRequest{URL: w1.URL})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join status %d", resp.StatusCode)
	}
	var jr serve.FleetJoinResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if jr.LeaseSec != 30 || jr.Peers != 1 {
		t.Fatalf("join response %+v", jr)
	}

	req := serve.SweepRequest{Apps: []string{"minife"}, Geometries: []cluster.Config{fleetGeom()}}
	rows := sweepNDJSON(t, cts.URL, req)
	if len(rows) != 1 || rows[0].Err != "" {
		t.Fatalf("federated sweep rows: %+v", rows)
	}
	if len(rows[0].ShardWorkers) == 0 || rows[0].ShardWorkers[0] != w1.URL {
		t.Fatalf("cell not served by the joined worker: %+v", rows[0].ShardWorkers)
	}

	// Leave; the next sweep runs locally.
	resp = postJSON("/v1/fleet/leave", serve.FleetJoinRequest{URL: w1.URL})
	var lr serve.FleetLeaveResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !lr.Removed || lr.Peers != 0 {
		t.Fatalf("leave response %+v", lr)
	}
	rows = sweepNDJSON(t, cts.URL, req)
	if len(rows) != 1 || rows[0].Err != "" || len(rows[0].ShardWorkers) != 0 {
		t.Fatalf("post-leave sweep rows: %+v", rows)
	}

	// A static coordinator refuses the protocol outright.
	staticF := newFleet(t, Options{Peers: []string{w1.URL}})
	staticCoord := serve.New(serve.Options{Workers: 2, Fleet: staticF})
	sts := httptest.NewServer(staticCoord.Handler())
	t.Cleanup(sts.Close)
	buf, _ := json.Marshal(serve.FleetJoinRequest{URL: w1.URL})
	sresp, err := http.Post(sts.URL+"/v1/fleet/join", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("static fleet join: %d, want 422", sresp.StatusCode)
	}
}

// sweepNDJSON posts a sweep to a server and decodes the NDJSON rows.
func sweepNDJSON(t *testing.T, baseURL string, req serve.SweepRequest) []serve.SweepRow {
	t.Helper()
	buf, _ := json.Marshal(req)
	resp, err := http.Post(baseURL+"/v1/sweep", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rows []serve.SweepRow
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var r serve.SweepRow
		if err := dec.Decode(&r); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, r)
	}
	return rows
}

// TestLeaseExpiryEvictsThroughProbeLoop: a joined worker that stops
// heartbeating is deregistered by the StartProbes tick.
func TestLeaseExpiryEvictsThroughProbeLoop(t *testing.T) {
	_, w1 := newWorker(t)
	f := newFleet(t, Options{Dynamic: true, LeaseTTL: 80 * time.Millisecond})
	if _, err := f.Join(w1.URL, 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f.StartProbes(ctx, 20*time.Millisecond)

	deadline := time.Now().Add(5 * time.Second)
	for len(f.Workers()) > 0 {
		if time.Now().After(deadline) {
			t.Fatal("expired lease never evicted by the probe loop")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if f.Snapshot().LeaseEvictions != 1 {
		t.Errorf("eviction counter %d, want 1", f.Snapshot().LeaseEvictions)
	}
}
