package analysis

import (
	"math"
	"math/rand"
	"testing"

	"earlybird/internal/cluster"
	"earlybird/internal/dlb"
	"earlybird/internal/trace"
	"earlybird/internal/workload"
)

// relErr is the relative disagreement between two values (0 when equal).
func relErr(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// foldByShard routes every block of the cursor to its trial's shard
// accumulator — the same per-trial observation sequence a federated
// worker sees when it generates exactly those trials.
func foldByShard(t *testing.T, cur *trace.Cursor, app string, threshold, alpha float64, shardOf []int, shards int) ([]*MetricsAccumulator, []*Table1Accumulator) {
	t.Helper()
	mAccs := make([]*MetricsAccumulator, shards)
	tAccs := make([]*Table1Accumulator, shards)
	for i := range mAccs {
		mAccs[i] = NewMetricsAccumulator(app, threshold)
		tAccs[i] = NewTable1Accumulator(app, alpha)
	}
	for cur.Next() {
		b := cur.Block()
		s := shardOf[b.Trial]
		mAccs[s].ObserveBlock(b.Trial, b.Rank, b.Iter, b.Times)
		tAccs[s].ObserveBlock(b.Trial, b.Rank, b.Iter, b.Times)
	}
	return mAccs, tAccs
}

// TestPartitionInvariance is the federation soundness property: for
// random geometries and random shard partitions of the trial space,
// merged shard accumulators — round-tripped through their binary wire
// form, merged in random order — must reproduce single-node streaming
// results bit-exactly for every moment-derived metric and the Table 1
// row, and within the documented rank-error bound for the
// sketch-estimated IQR statistics.
func TestPartitionInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	models := []workload.Model{workload.DefaultMiniFE(), workload.DefaultMiniMD(), workload.DefaultMiniQMC()}

	for round := 0; round < 5; round++ {
		model := models[round%len(models)]
		cfg := cluster.Config{
			Trials:     2 + rng.Intn(5),
			Ranks:      1 + rng.Intn(3),
			Iterations: 2 + rng.Intn(10),
			Threads:    8 + rng.Intn(17),
			Seed:       uint64(100 + round),
		}
		col, err := cluster.RunColumnar(model, cfg, dlb.Spec{}, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		threshold := DefaultLaggardThresholdSec
		const alpha = 0.05

		// Single-node reference: one deterministic cursor pass.
		want := ComputeMetricsStreaming(model.Name(), col.Cursor(), threshold)
		wantT1 := Table1Streaming(model.Name(), col.Cursor(), alpha)

		// Random partition of the trial space: each trial lands on one of
		// up to Trials shards (possibly non-contiguous, possibly empty).
		shards := 1 + rng.Intn(cfg.Trials)
		shardOf := make([]int, cfg.Trials)
		for trial := range shardOf {
			shardOf[trial] = rng.Intn(shards)
		}
		mAccs, tAccs := foldByShard(t, col.Cursor(), model.Name(), threshold, alpha, shardOf, shards)

		// Round-trip every shard through the wire codec, then merge in a
		// random order — exactly what the fleet coordinator does with
		// /v1/shard responses arriving in completion order.
		mRoot := NewMetricsAccumulator(model.Name(), threshold)
		tRoot := NewTable1Accumulator(model.Name(), alpha)
		for _, s := range rng.Perm(shards) {
			enc, err := mAccs[s].MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			decM := new(MetricsAccumulator)
			if err := decM.UnmarshalBinary(enc); err != nil {
				t.Fatal(err)
			}
			encT, err := tAccs[s].MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			decT := new(Table1Accumulator)
			if err := decT.UnmarshalBinary(encT); err != nil {
				t.Fatal(err)
			}
			mRoot.Merge(decM)
			tRoot.Merge(decT)
		}
		got := mRoot.Finalize()
		gotT1 := tRoot.Finalize()

		// Moment-derived metrics: bit-exact, not merely close.
		if got.MeanMedianSec != want.MeanMedianSec ||
			got.LaggardFraction != want.LaggardFraction ||
			got.AvgReclaimableProcSec != want.AvgReclaimableProcSec ||
			got.IdleRatioProc != want.IdleRatioProc ||
			got.AvgReclaimableAppIterSec != want.AvgReclaimableAppIterSec ||
			got.IdleRatioAppIter != want.IdleRatioAppIter {
			t.Fatalf("round %d (%s %+v, %d shards): merged shards not bit-identical:\n got %+v\nwant %+v",
				round, model.Name(), cfg, shards, got, want)
		}
		// Table 1 is integer counting underneath: exactly equal.
		if gotT1 != wantT1 {
			t.Fatalf("round %d: merged Table1 %+v vs single-node %+v", round, gotT1, wantT1)
		}
		// IQR statistics ride the sketch: merged shard sketches keep the
		// documented rank-error bound, not bit-equality.
		if relErr(got.IQRMeanSec, want.IQRMeanSec) > 0.10 {
			t.Fatalf("round %d: IQRMeanSec merged %v vs single-node %v (>10%%)", round, got.IQRMeanSec, want.IQRMeanSec)
		}
		if relErr(got.IQRMaxSec, want.IQRMaxSec) > 0.15 {
			t.Fatalf("round %d: IQRMaxSec merged %v vs single-node %v (>15%%)", round, got.IQRMaxSec, want.IQRMaxSec)
		}
	}
}

// TestPartitionInvarianceDLB extends the federation soundness property
// across the rebalancing axis: because LeWI/DROM balancer state is
// strictly per-trial, any trial partition of a rebalanced study must
// merge bit-identically to its single-node run — same property, new
// policy axis. The geometry uses 4 ranks so the policies actually fire
// (each round also proves it by checking the rebalanced bits differ
// from static).
func TestPartitionInvarianceDLB(t *testing.T) {
	model := workload.DefaultMiniFE()
	cfg := cluster.Config{Trials: 5, Ranks: 4, Iterations: 10, Threads: 48, Seed: 1}
	static, err := cluster.RunColumnar(model, cfg, dlb.Spec{}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	staticRef := ComputeMetricsStreaming(model.Name(), static.Cursor(), DefaultLaggardThresholdSec)

	rng := rand.New(rand.NewSource(53))
	for _, policy := range []dlb.Spec{
		{Policy: dlb.PolicyLeWI},
		{Policy: dlb.PolicyDROM, ReactionIters: 2},
	} {
		col, err := cluster.RunColumnar(model, cfg, policy, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		ref := ComputeMetricsStreaming(model.Name(), col.Cursor(), DefaultLaggardThresholdSec)
		if ref == staticRef {
			t.Fatalf("%s: rebalancing did not change the data at %+v; the invariance round is vacuous", policy.Name(), cfg)
		}

		// Random trial partition, wire round trip, random merge order —
		// the fleet coordinator's view of a rebalanced sweep cell.
		shards := 2 + rng.Intn(cfg.Trials-1)
		shardOf := make([]int, cfg.Trials)
		for trial := range shardOf {
			shardOf[trial] = rng.Intn(shards)
		}
		mAccs, _ := foldByShard(t, col.Cursor(), model.Name(), DefaultLaggardThresholdSec, 0.05, shardOf, shards)
		root := NewMetricsAccumulator(model.Name(), DefaultLaggardThresholdSec)
		for _, s := range rng.Perm(shards) {
			enc, err := mAccs[s].MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			dec := new(MetricsAccumulator)
			if err := dec.UnmarshalBinary(enc); err != nil {
				t.Fatal(err)
			}
			root.Merge(dec)
		}
		got := root.Finalize()
		if got.MeanMedianSec != ref.MeanMedianSec ||
			got.LaggardFraction != ref.LaggardFraction ||
			got.AvgReclaimableProcSec != ref.AvgReclaimableProcSec ||
			got.IdleRatioProc != ref.IdleRatioProc ||
			got.AvgReclaimableAppIterSec != ref.AvgReclaimableAppIterSec ||
			got.IdleRatioAppIter != ref.IdleRatioAppIter {
			t.Fatalf("%s (%d shards): merged shards not bit-identical under rebalancing:\n got %+v\nwant %+v",
				policy.Name(), shards, got, ref)
		}
	}
}

// TestPartitionInvarianceContiguous pins the fleet's actual sharding
// shape — contiguous trial ranges — including the degenerate one-shard
// split, and checks a second property: re-partitioning the same study
// differently gives bit-identical finalized metrics for the exact
// fields (partition invariance between two federated runs, not just
// federated-vs-single-node).
func TestPartitionInvarianceContiguous(t *testing.T) {
	model := workload.DefaultMiniFE()
	cfg := cluster.Config{Trials: 6, Ranks: 2, Iterations: 8, Threads: 16, Seed: 77}
	col, err := cluster.RunColumnar(model, cfg, dlb.Spec{}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}

	splitAt := func(cuts []int) AppMetrics {
		// cuts are shard boundaries: shard i covers [cuts[i], cuts[i+1]).
		shardOf := make([]int, cfg.Trials)
		for i := 0; i+1 < len(cuts); i++ {
			for trial := cuts[i]; trial < cuts[i+1]; trial++ {
				shardOf[trial] = i
			}
		}
		mAccs, _ := foldByShard(t, col.Cursor(), model.Name(), DefaultLaggardThresholdSec, 0.05, shardOf, len(cuts)-1)
		root := NewMetricsAccumulator(model.Name(), DefaultLaggardThresholdSec)
		for _, acc := range mAccs {
			root.Merge(acc)
		}
		return root.Finalize()
	}

	single := splitAt([]int{0, 6})
	balanced := splitAt([]int{0, 2, 4, 6})
	skewed := splitAt([]int{0, 1, 2, 6})
	ref := ComputeMetricsStreaming(model.Name(), col.Cursor(), DefaultLaggardThresholdSec)

	for name, got := range map[string]AppMetrics{"single": single, "balanced": balanced, "skewed": skewed} {
		if got.MeanMedianSec != ref.MeanMedianSec ||
			got.LaggardFraction != ref.LaggardFraction ||
			got.AvgReclaimableProcSec != ref.AvgReclaimableProcSec ||
			got.AvgReclaimableAppIterSec != ref.AvgReclaimableAppIterSec ||
			got.IdleRatioProc != ref.IdleRatioProc ||
			got.IdleRatioAppIter != ref.IdleRatioAppIter {
			t.Fatalf("%s split diverged from reference:\n got %+v\nwant %+v", name, got, ref)
		}
	}
}

// TestMetricsAccumulatorBinaryRoundTrip: the codec must preserve
// identity and every finalized output bit-exactly, and marshalling must
// be deterministic.
func TestMetricsAccumulatorBinaryRoundTrip(t *testing.T) {
	model := workload.DefaultMiniQMC()
	cfg := cluster.Config{Trials: 2, Ranks: 2, Iterations: 6, Threads: 12, Seed: 5}
	col, err := cluster.RunColumnar(model, cfg, dlb.Spec{}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	acc := NewMetricsAccumulator(model.Name(), DefaultLaggardThresholdSec)
	t1 := NewTable1Accumulator(model.Name(), 0.05)
	cur := col.Cursor()
	for cur.Next() {
		b := cur.Block()
		acc.ObserveBlock(b.Trial, b.Rank, b.Iter, b.Times)
		t1.ObserveBlock(b.Trial, b.Rank, b.Iter, b.Times)
	}

	enc, err := acc.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := acc.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(enc) != string(enc2) {
		t.Error("MetricsAccumulator.MarshalBinary is not deterministic")
	}
	dec := new(MetricsAccumulator)
	if err := dec.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	if dec.App() != model.Name() || dec.LaggardThreshold() != DefaultLaggardThresholdSec {
		t.Fatalf("identity lost: app %q threshold %v", dec.App(), dec.LaggardThreshold())
	}
	if dec.Blocks() != acc.Blocks() {
		t.Fatalf("blocks %d vs %d", dec.Blocks(), acc.Blocks())
	}
	if got, want := dec.Finalize(), acc.Finalize(); got != want {
		t.Fatalf("finalize after round trip:\n got %+v\nwant %+v", got, want)
	}

	encT, err := t1.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	decT := new(Table1Accumulator)
	if err := decT.UnmarshalBinary(encT); err != nil {
		t.Fatal(err)
	}
	if decT.App() != t1.App() || decT.Alpha() != t1.Alpha() || decT.Blocks() != t1.Blocks() {
		t.Fatalf("table1 identity lost: %q %v %d", decT.App(), decT.Alpha(), decT.Blocks())
	}
	if got, want := decT.Finalize(), t1.Finalize(); got != want {
		t.Fatalf("table1 finalize after round trip: %+v vs %+v", got, want)
	}

	// Corruption is rejected.
	if err := new(MetricsAccumulator).UnmarshalBinary(enc[:len(enc)-2]); err == nil {
		t.Error("truncated MetricsAccumulator: expected error")
	}
	if err := new(Table1Accumulator).UnmarshalBinary([]byte{99}); err == nil {
		t.Error("bad Table1 version: expected error")
	}
}
