// Serve-layer tests for the dynamic-membership endpoints (exercised
// here with fakes — serve cannot import fleet; the real end-to-end
// protocol is tested in internal/fleet) and for adaptive admission
// gating the shard path.

package serve

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"testing"
	"time"
)

// fakeMemberFleet implements FleetDispatcher + FleetMembership.
type fakeMemberFleet struct {
	joined  []string
	left    []string
	joinErr error
}

func (f *fakeMemberFleet) DispatchCell(ctx context.Context, cell SweepCell) (SweepRow, bool) {
	return SweepRow{}, false
}

func (f *fakeMemberFleet) Snapshot() FleetSnapshot {
	return FleetSnapshot{Peers: len(f.joined) - len(f.left)}
}

func (f *fakeMemberFleet) Join(url string, capacity float64) (time.Duration, error) {
	if f.joinErr != nil {
		return 0, f.joinErr
	}
	f.joined = append(f.joined, url)
	return 42 * time.Second, nil
}

func (f *fakeMemberFleet) Leave(url string) bool {
	for _, u := range f.joined {
		if u == url {
			f.left = append(f.left, url)
			return true
		}
	}
	return false
}

// dispatchOnlyFleet implements FleetDispatcher but not FleetMembership.
type dispatchOnlyFleet struct{}

func (dispatchOnlyFleet) DispatchCell(ctx context.Context, cell SweepCell) (SweepRow, bool) {
	return SweepRow{}, false
}
func (dispatchOnlyFleet) Snapshot() FleetSnapshot { return FleetSnapshot{} }

func TestFleetJoinLeaveEndpoints(t *testing.T) {
	fake := &fakeMemberFleet{}
	s := New(Options{Workers: 1, Fleet: fake})
	ts := newHTTPServer(t, s)

	resp := postJSON(t, ts.URL+"/v1/fleet/join", FleetJoinRequest{URL: "http://w:1", Capacity: 0.5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join status %d", resp.StatusCode)
	}
	var jr FleetJoinResponse
	decodeInto(t, resp, &jr)
	if jr.LeaseSec != 42 || jr.Peers != 1 {
		t.Fatalf("join response %+v", jr)
	}
	if len(fake.joined) != 1 || fake.joined[0] != "http://w:1" {
		t.Fatalf("fleet saw joins %v", fake.joined)
	}

	resp = postJSON(t, ts.URL+"/v1/fleet/join", FleetJoinRequest{})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing url: %d, want 400", resp.StatusCode)
	}

	fake.joinErr = fmt.Errorf("not accepting joins")
	resp = postJSON(t, ts.URL+"/v1/fleet/join", FleetJoinRequest{URL: "http://w:2"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("join error: %d, want 422", resp.StatusCode)
	}
	fake.joinErr = nil

	resp = postJSON(t, ts.URL+"/v1/fleet/leave", FleetJoinRequest{URL: "http://w:1"})
	var lr FleetLeaveResponse
	decodeInto(t, resp, &lr)
	if !lr.Removed || lr.Peers != 0 {
		t.Fatalf("leave response %+v", lr)
	}
	resp = postJSON(t, ts.URL+"/v1/fleet/leave", FleetJoinRequest{URL: "http://gone:9"})
	var lr2 FleetLeaveResponse
	decodeInto(t, resp, &lr2)
	if lr2.Removed {
		t.Error("leave of an unknown worker reported removed")
	}
}

// TestFleetJoinWithoutMembership: servers with no fleet, or a fleet
// that cannot change membership, answer 404 — the endpoint does not
// exist for them.
func TestFleetJoinWithoutMembership(t *testing.T) {
	for name, opts := range map[string]Options{
		"no fleet":             {Workers: 1},
		"static-only dispatch": {Workers: 1, Fleet: dispatchOnlyFleet{}},
	} {
		s := New(opts)
		ts := newHTTPServer(t, s)
		for _, path := range []string{"/v1/fleet/join", "/v1/fleet/leave"} {
			resp := postJSON(t, ts.URL+path, FleetJoinRequest{URL: "http://w:1"})
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("%s %s: status %d, want 404", name, path, resp.StatusCode)
			}
		}
	}
}

// TestShardAdmissionSheds: adaptive admission gates /v1/shard like any
// other materialising execution — a worker under its watermark answers
// 503 + Retry-After (the signal the fleet scheduler reads as busy), and
// serves again the moment the degraded study finishes.
func TestShardAdmissionSheds(t *testing.T) {
	s := New(Options{Workers: 2, AdmissionWatermark: 0.5})
	ts := newHTTPServer(t, s)

	shard := ShardRequest{App: "minife", Geometry: ptr(testGeom()), TrialLo: 0, TrialHi: 1}

	tr := degradedTracker("shard-shed", 0.1)
	s.Telemetry().Register(tr)
	resp := postJSON(t, ts.URL+"/v1/shard", shard)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shard under watermark: status %d, want 503", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After %q, want an integer >= 1", resp.Header.Get("Retry-After"))
	}

	// A malformed shard still fails 4xx, not 503: admission gates
	// execution, not validation.
	bad := postJSON(t, ts.URL+"/v1/shard", ShardRequest{App: "minife", Geometry: ptr(testGeom()), TrialLo: 5, TrialHi: 2})
	bad.Body.Close()
	if bad.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("invalid shard under shed: status %d, want 422", bad.StatusCode)
	}

	s.Telemetry().Finish(tr)
	ok := postJSON(t, ts.URL+"/v1/shard", shard)
	sr := decodeShard(t, ok)
	if len(sr.MetricsState) == 0 {
		t.Fatal("post-recovery shard carries no accumulator state")
	}
}
