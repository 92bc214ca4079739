package cluster

import (
	"sync"
	"testing"

	"earlybird/internal/dlb"
	"earlybird/internal/workload"
)

// preRefactorFingerprints are the paper-geometry (DefaultConfig) and
// quick-geometry (SmallConfig) dataset fingerprints captured on the fill
// loop as it existed before the DLB refactor. dlb.Static must keep
// reproducing these bits forever: the static policy IS the pre-DLB
// runtime, and every cached dataset, golden file and federated shard
// merge in the repo assumes so.
var preRefactorFingerprints = map[string]map[string]uint64{
	"minife":  {"paper": 0x800a9ce87bb6229d, "quick": 0xfc481341e00ecfd4},
	"minimd":  {"paper": 0xebef027d460e0046, "quick": 0x55b2b0827d1eb4b0},
	"miniqmc": {"paper": 0x0e3f33b0dcde8fc7, "quick": 0x4f36a53f7ae53b52},
}

// TestDLBStaticGoldenFingerprint: the static policy (zero spec and
// explicit "static" alike) is bit-identical to the pre-refactor fill at
// the paper's geometry.
func TestDLBStaticGoldenFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("paper geometry fill in -short mode")
	}
	for app, want := range preRefactorFingerprints {
		model, err := workload.ByName(app)
		if err != nil {
			t.Fatal(err)
		}
		for name, cfg := range map[string]Config{"paper": DefaultConfig(), "quick": SmallConfig()} {
			for _, policy := range []dlb.Spec{{}, {Policy: dlb.PolicyStatic}} {
				col, err := RunColumnar(model, cfg, policy, 0, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got := col.Fingerprint(); got != want[name] {
					t.Errorf("%s %s policy %q: fingerprint %#016x, want pre-refactor %#016x",
						app, name, policy.String(), got, want[name])
				}
			}
		}
	}
}

// TestDLBPolicyChangesBits: a rebalancing policy must actually produce
// different sample data (otherwise it could share cache entries), and
// each policy must be deterministic across runs and worker counts.
func TestDLBPolicyChangesBits(t *testing.T) {
	model := workload.DefaultMiniFE()
	cfg := SmallConfig()
	static, err := RunColumnar(model, cfg, dlb.Spec{}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []dlb.Spec{{Policy: dlb.PolicyLeWI}, {Policy: dlb.PolicyDROM}} {
		a, err := RunColumnar(model, cfg, policy, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if a.Fingerprint() == static.Fingerprint() {
			t.Errorf("%s produced the static bits; rebalancing had no effect", policy.Name())
		}
		b, err := RunColumnar(model, cfg, policy, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if a.Fingerprint() != b.Fingerprint() {
			t.Errorf("%s is not deterministic across worker counts: %#x vs %#x",
				policy.Name(), a.Fingerprint(), b.Fingerprint())
		}
	}
}

// TestDLBRejectsInvalidPolicy: an invalid spec is an error, not a
// silent fallback.
func TestDLBRejectsInvalidPolicy(t *testing.T) {
	if _, err := RunColumnar(workload.DefaultMiniFE(), SmallConfig(), dlb.Spec{Policy: "turbo"}, 0, nil); err == nil {
		t.Fatal("invalid policy accepted")
	}
}

// blockCounter records every observed (trial, rank, iter) coordinate.
// One instance per fill worker (no locking needed), merged afterwards.
type blockCounter struct {
	threads int
	seen    map[[3]int]int
	bad     int
}

func (c *blockCounter) ObserveBlock(trial, rank, iter int, times []float64) {
	if len(times) != c.threads {
		c.bad++
	}
	c.seen[[3]int{trial, rank, iter}]++
}

// TestLeWIStreamDeliversEveryBlockOnce: under LeWI rebalancing,
// RunStream must hand every (trial, rank, iteration) block to exactly
// one observer exactly once — the rebalancing path must not drop,
// duplicate or resize blocks. Run with -race this also exercises the
// trial-major path's goroutine safety.
func TestLeWIStreamDeliversEveryBlockOnce(t *testing.T) {
	cfg := SmallConfig()
	var mu sync.Mutex
	var counters []*blockCounter
	obs, err := RunStream(workload.DefaultMiniMD(), cfg, dlb.Spec{Policy: dlb.PolicyLeWI}, 4, nil, func() BlockObserver {
		c := &blockCounter{threads: cfg.Threads, seen: map[[3]int]int{}}
		mu.Lock()
		counters = append(counters, c)
		mu.Unlock()
		return c
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) == 0 {
		t.Fatal("no observers created")
	}
	merged := map[[3]int]int{}
	for _, c := range counters {
		if c.bad != 0 {
			t.Fatalf("%d blocks had the wrong thread count", c.bad)
		}
		for k, n := range c.seen {
			merged[k] += n
		}
	}
	want := cfg.Trials * cfg.Ranks * cfg.Iterations
	if len(merged) != want {
		t.Fatalf("observed %d distinct blocks, want %d", len(merged), want)
	}
	for k, n := range merged {
		if n != 1 {
			t.Fatalf("block %v delivered %d times", k, n)
		}
	}
}

// TestDLBStreamMatchesColumnar: the streaming (sink-less) balanced path
// must time blocks identically to the columnar one — the scaling
// happens before observation in both.
func TestDLBStreamMatchesColumnar(t *testing.T) {
	cfg := Config{Trials: 2, Ranks: 3, Iterations: 20, Threads: 16, Seed: 7}
	model := workload.DefaultMiniQMC()
	policy := dlb.Spec{Policy: dlb.PolicyDROM, ReactionIters: 2}

	col, err := RunColumnar(model, cfg, policy, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	type sums struct{ total float64 }
	var mu sync.Mutex
	var all []*sums
	_, err = RunStream(model, cfg, policy, 2, nil, func() BlockObserver {
		s := &sums{}
		mu.Lock()
		all = append(all, s)
		mu.Unlock()
		return observerFunc(func(trial, rank, iter int, times []float64) {
			for _, x := range times {
				s.total += x
			}
		})
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var streamed float64
	for _, s := range all {
		streamed += s.total
	}
	var direct float64
	cur := col.Cursor()
	for cur.Next() {
		for _, x := range cur.Block().Times {
			direct += x
		}
	}
	if diff := streamed - direct; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("streamed sum %v != columnar sum %v", streamed, direct)
	}
}

type observerFunc func(trial, rank, iter int, times []float64)

func (f observerFunc) ObserveBlock(trial, rank, iter int, times []float64) {
	f(trial, rank, iter, times)
}
