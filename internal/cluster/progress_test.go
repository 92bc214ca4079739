package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"earlybird/internal/dlb"
	"earlybird/internal/workload"
)

// countingSink is a minimal ProgressSink: atomics only, exactly like
// telemetry.Tracker's feed side, so attaching it from concurrent fill
// workers is race-clean by construction.
type countingSink struct {
	blocks  atomic.Int64
	samples atomic.Int64
	busyNs  atomic.Int64
	lends   atomic.Int64
}

func (s *countingSink) ObserveFill(blocks, samples int, busy time.Duration) {
	s.blocks.Add(int64(blocks))
	s.samples.Add(int64(samples))
	s.busyNs.Add(int64(busy))
}

func (s *countingSink) ObserveLend(n int) { s.lends.Add(int64(n)) }

// TestProgressSinkDoesNotPerturbFill pins the telemetry no-perturbation
// contract: a fill with a progress sink attached produces bit-identical
// datasets to a detached fill, for the static and both rebalancing
// policies, at the quick geometry always and at the paper geometry
// outside -short. The static paper/quick fingerprints must additionally
// equal the pre-refactor goldens, so telemetry cannot even perturb the
// bits "consistently". Run under -race (`make race`) the sink's shared
// atomics become detector targets for every fill worker.
func TestProgressSinkDoesNotPerturbFill(t *testing.T) {
	geoms := map[string]Config{"quick": SmallConfig()}
	if !testing.Short() {
		geoms["paper"] = DefaultConfig()
	}
	policies := []dlb.Spec{{}, {Policy: dlb.PolicyLeWI}, {Policy: dlb.PolicyDROM}}

	for app, golden := range preRefactorFingerprints {
		model, err := workload.ByName(app)
		if err != nil {
			t.Fatal(err)
		}
		for name, cfg := range geoms {
			for _, policy := range policies {
				detached, err := RunColumnar(model, cfg, policy, 4, nil)
				if err != nil {
					t.Fatal(err)
				}
				sink := &countingSink{}
				attached, err := RunColumnar(model, cfg, policy, 4, sink)
				if err != nil {
					t.Fatal(err)
				}
				if attached.Fingerprint() != detached.Fingerprint() {
					t.Errorf("%s %s policy %q: attached fingerprint %#016x != detached %#016x — telemetry perturbed the fill",
						app, name, policy.String(), attached.Fingerprint(), detached.Fingerprint())
				}
				if policy.IsStatic() {
					if got := attached.Fingerprint(); got != golden[name] {
						t.Errorf("%s %s: observed static fingerprint %#016x, want pre-refactor golden %#016x",
							app, name, got, golden[name])
					}
				}

				wantBlocks := int64(cfg.Trials) * int64(cfg.Ranks) * int64(cfg.Iterations)
				if got := sink.blocks.Load(); got != wantBlocks {
					t.Errorf("%s %s policy %q: sink saw %d blocks, want %d",
						app, name, policy.String(), got, wantBlocks)
				}
				if got := sink.samples.Load(); got != int64(cfg.Samples()) {
					t.Errorf("%s %s policy %q: sink saw %d samples, want %d",
						app, name, policy.String(), got, cfg.Samples())
				}
				if sink.busyNs.Load() <= 0 {
					t.Errorf("%s %s policy %q: sink accumulated no busy time", app, name, policy.String())
				}
				if policy.IsStatic() && sink.lends.Load() != 0 {
					t.Errorf("%s %s: static fill reported %d lend events", app, name, sink.lends.Load())
				}
			}
		}
	}
}

// TestProgressSinkSeesLendEvents: the balanced fill must report lent
// allocations to the sink — LeWI at the quick geometry demonstrably
// rebalances (TestDLBPolicyChangesBits), so a sink attached to it must
// observe at least one lend event.
func TestProgressSinkSeesLendEvents(t *testing.T) {
	sink := &countingSink{}
	if _, err := RunColumnar(workload.DefaultMiniFE(), SmallConfig(), dlb.Spec{Policy: dlb.PolicyLeWI}, 2, sink); err != nil {
		t.Fatal(err)
	}
	if sink.lends.Load() == 0 {
		t.Fatal("LeWI fill reported no lend events to the progress sink")
	}
}

// recordingSink keeps every ObserveFill report.
type recordingSink struct {
	mu      sync.Mutex
	reports [][2]int // blocks, samples
}

func (s *recordingSink) ObserveFill(blocks, samples int, _ time.Duration) {
	s.mu.Lock()
	s.reports = append(s.reports, [2]int{blocks, samples})
	s.mu.Unlock()
}

func (s *recordingSink) ObserveLend(int) {}

// TestProgressReportsPerBatch pins the per-batch progress hook: under
// the static, LeWI and DROM policies, with and without a sample sink
// and at one and three workers, the reported blocks and samples sum to
// the geometry, no report holds more than progressBatch blocks, and a
// worker reports once per progressBatch blocks of a stripe (of a trial
// under a rebalancing policy) and at its end — so at most
// ⌈iterations/progressBatch⌉ times per stripe it fills.
func TestProgressReportsPerBatch(t *testing.T) {
	ceil := func(a, b int) int { return (a + b - 1) / b }
	model := workload.DefaultMiniQMC()
	for _, cfg := range []Config{SmallConfig(), {Trials: 3, Ranks: 2, Iterations: 200, Threads: 48, Seed: 5}} {
		stripes := cfg.Trials * cfg.Ranks
		for _, policy := range []dlb.Spec{{}, {Policy: dlb.PolicyLeWI}, {Policy: dlb.PolicyDROM}} {
			for _, workers := range []int{1, 3} {
				for _, withSink := range []bool{false, true} {
					rec := &recordingSink{}
					var err error
					if withSink {
						_, err = RunColumnar(model, cfg, policy, workers, rec)
					} else {
						_, err = RunStream(model, cfg, policy, workers, nil, nil, rec)
					}
					if err != nil {
						t.Fatal(err)
					}
					what := fmt.Sprintf("%dx%dx%dx%d policy %q, %d workers, sink %v",
						cfg.Trials, cfg.Ranks, cfg.Iterations, cfg.Threads, policy.String(), workers, withSink)
					blocks, samples := 0, 0
					for _, r := range rec.reports {
						if r[0] < 1 || r[0] > progressBatch || r[1] != r[0]*cfg.Threads {
							t.Errorf("%s: report of %d blocks, %d samples", what, r[0], r[1])
						}
						blocks += r[0]
						samples += r[1]
					}
					if blocks != cfg.Trials*cfg.Ranks*cfg.Iterations || samples != cfg.Samples() {
						t.Errorf("%s: reports sum to %d blocks, %d samples, want %d and %d",
							what, blocks, samples, cfg.Trials*cfg.Ranks*cfg.Iterations, cfg.Samples())
					}
					want := stripes * ceil(cfg.Iterations, progressBatch)
					if !policy.IsStatic() {
						want = cfg.Trials * ceil(cfg.Ranks*cfg.Iterations, progressBatch)
					}
					if len(rec.reports) != want || want > stripes*ceil(cfg.Iterations, progressBatch) {
						t.Errorf("%s: %d reports, want %d (at most %d per stripe)",
							what, len(rec.reports), want, ceil(cfg.Iterations, progressBatch))
					}
				}
			}
		}
	}
}
