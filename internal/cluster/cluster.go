// Package cluster runs a full study job — trials x ranks x iterations x
// threads — over a workload model. RunStream is the one fill routine: it
// feeds per-iteration sample blocks to subscribed accumulators, so
// aggregate-only studies never materialise the dataset, and optionally
// writes them into a trace.Sink. RunColumnar is that routine into a
// sealed columnar store, and Run its nested Dataset view. ShiftTrials
// offsets a model's trial axis, so a fill of a trial range generates
// those trials of the whole study bit for bit.
//
// Every fill takes a dlb.Spec. The static policy (the zero Spec)
// fills one task per (trial, rank), with no cross-rank coupling,
// bit-identical to the pre-DLB runtime. Rebalancing policies couple the
// ranks of a trial through the balancer: at every iteration boundary
// the policy sees the trial's per-rank finish times and re-divides the
// trial's thread budget, and a rank running on alloc threads instead of
// its base complement has its (fixed-size) sample block scaled by
// base/alloc — the work-conserving model of running the same work on
// fewer or more cores. Those policies fill trial-major: one task per
// trial, iterations in order, every rank of the iteration filled before
// the balancer decides the next one. Rebalancing is strictly per-trial,
// so trial-sharded federation remains exact under any policy, and the
// result stays deterministic in the seed because the RNG coordinates of
// every block are unchanged — only the deterministic post-scale differs.
//
// The default geometry mirrors the paper's experimental configuration on
// Manzano (Section 3.2): ten trials, eight processes per job, 48 threads
// per process (two 24-core Cascade Lake sockets), two hundred iterations —
// 768000 samples per application.
package cluster

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"earlybird/internal/dlb"
	"earlybird/internal/rng"
	"earlybird/internal/trace"
	"earlybird/internal/workload"
)

// Config is a study geometry plus master seed. The JSON form is the wire
// geometry of the serve layer's study service.
type Config struct {
	Trials     int    `json:"trials"`
	Ranks      int    `json:"ranks"`
	Iterations int    `json:"iterations"`
	Threads    int    `json:"threads"`
	Seed       uint64 `json:"seed"`
}

// Samples returns the total sample count of the geometry:
// trials x ranks x iterations x threads, saturating at math.MaxInt so a
// bound check against it can never be passed by overflow.
func (c Config) Samples() int {
	n := c.Trials
	for _, d := range []int{c.Ranks, c.Iterations, c.Threads} {
		if d > 0 && n > math.MaxInt/d {
			return math.MaxInt
		}
		n *= d
	}
	return n
}

// DefaultConfig returns the paper's geometry (10 x 8 x 200 x 48).
func DefaultConfig() Config {
	return Config{Trials: 10, Ranks: 8, Iterations: 200, Threads: 48, Seed: 1}
}

// SmallConfig returns a reduced geometry for fast tests and examples:
// the same thread count (the statistics are per-48-thread sets) with
// fewer trials and iterations.
func SmallConfig() Config {
	return Config{Trials: 3, Ranks: 4, Iterations: 60, Threads: 48, Seed: 1}
}

// HugeConfig returns a geometry with exactly 100x the paper's sample
// count — 10 trials, 32 ranks, 5000 iterations, 48 threads: 76.8 million
// samples. Materialised this is a 614 MB tensor; it exists to exercise
// the streaming pipeline, which analyses it in bounded memory (see
// examples/streaming-study).
func HugeConfig() Config {
	return Config{Trials: 10, Ranks: 32, Iterations: 5000, Threads: 48, Seed: 1}
}

// namedConfigs is the one table of named geometries, each at seed 1.
var namedConfigs = [...]struct {
	name string
	cfg  Config
}{{"paper", DefaultConfig()}, {"quick", SmallConfig()}, {"huge", HugeConfig()}}

// Named returns the geometry called name ("paper", "quick" or "huge"),
// seed 1; ok is false for any other name.
func Named(name string) (cfg Config, ok bool) {
	for _, n := range namedConfigs {
		if n.name == name {
			return n.cfg, true
		}
	}
	return Config{}, false
}

// NameOf returns the name of the named geometry with cfg's dimensions,
// whatever its seed, or "" when none has them.
func NameOf(cfg Config) string {
	cfg.Seed = 1
	for _, n := range namedConfigs {
		if n.cfg == cfg {
			return n.name
		}
	}
	return ""
}

// Validate checks the geometry.
func (c Config) Validate() error {
	if c.Trials < 1 || c.Ranks < 1 || c.Iterations < 1 || c.Threads < 1 {
		return fmt.Errorf("cluster: non-positive geometry %+v", c)
	}
	return nil
}

// Run executes the study described by cfg over the model under the
// static policy and returns the collected dataset: RunColumnar's sealed
// store, on one fill goroutine per CPU, viewed as a nested Dataset.
func Run(model workload.Model, cfg Config) (*trace.Dataset, error) {
	col, err := RunColumnar(model, cfg, dlb.Spec{}, 0, nil)
	if err != nil {
		return nil, err
	}
	return col.Dataset(), nil
}

// RunColumnar executes the study under policy into a columnar sink and
// returns the sealed store: the compact form the campaign engine
// caches. It is RunStream into a sink with no block observers; workers
// and progress mean what they mean there. Seal only checks that every
// stripe is complete; the content fingerprint is computed on demand by
// Columnar.Fingerprint, which only tests call.
func RunColumnar(model workload.Model, cfg Config, policy dlb.Spec, workers int, progress ProgressSink) (*trace.Columnar, error) {
	return RunColumnarInto(nil, model, cfg, policy, workers, progress)
}

// RunColumnarInto is RunColumnar writing the column into times when its
// length is cfg's sample count (trace.NewSinkInto), and into a fresh
// one otherwise. The fill writes every sample, so a recycled column
// gives the bits a fresh one does.
func RunColumnarInto(times []float64, model workload.Model, cfg Config, policy dlb.Spec, workers int, progress ProgressSink) (*trace.Columnar, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sink := trace.NewSinkInto(times, model.Name(), cfg.Trials, cfg.Ranks, cfg.Iterations, cfg.Threads)
	if _, err := RunStream(model, cfg, policy, workers, sink, nil, progress); err != nil {
		return nil, err
	}
	return sink.Seal()
}

// BlockObserver consumes process-iteration sample blocks as they are
// produced by a streaming fill. The slice passed to ObserveBlock is only
// valid for the duration of the call and must not be mutated or retained.
type BlockObserver interface {
	ObserveBlock(trial, rank, iter int, times []float64)
}

// ProgressSink receives live fill telemetry from a streaming run — the
// observer-hook half of the TALP-style live performance tracking
// (internal/telemetry provides the tracker half). Implementations must
// be safe for concurrent use: every fill worker calls ObserveFill once
// per batch of blocks it fills — at the end of each stripe (a trial
// under a rebalancing policy) and after every progressBatch blocks
// within one — so the sink is touched, and the clock read, once per
// batch rather than once per block, as TALP accounts per region rather
// than per event.
//
// No-perturbation contract: a sink only ever receives counts and
// durations, never the sample slice, so it cannot perturb the result
// path; and a nil sink costs a predicted nil test before and after each
// block — no clock read, no call — inside the same fill loop an
// attached sink runs (both properties are pinned by tests — golden
// fingerprints with/without a sink, and the bench gate).
type ProgressSink interface {
	// ObserveFill reports one batch of produced process-iteration
	// blocks: how many, their total sample count and the worker time
	// spent filling them.
	ObserveFill(blocks, samples int, busy time.Duration)
	// ObserveLend reports a DLB iteration boundary at which n ranks ran
	// on a lent (non-base) thread allocation. Never called under the
	// static policy.
	ObserveLend(n int)
}

// progressBatch is how many blocks a fill worker fills, at most,
// between two ObserveFill reports within a stripe. At 32 a stripe of
// every named geometry (60, 200 and 5000 iterations) reports more than
// once, so /v1/progress moves within a stripe.
const progressBatch = 32

// fillBatch is one fill worker's open progress batch: the blocks and
// samples filled since its last report, and when the first of them
// started.
type fillBatch struct {
	blocks, samples int
	start           time.Time
}

// begin starts the clock when a block opens a new batch.
func (b *fillBatch) begin() {
	if b.blocks == 0 {
		b.start = time.Now()
	}
}

// add counts one filled block of n samples and reports the batch once
// it holds progressBatch blocks.
func (b *fillBatch) add(p ProgressSink, n int) {
	b.blocks++
	b.samples += n
	if b.blocks == progressBatch {
		b.flush(p)
	}
}

// flush reports the open batch, if any, and empties it.
func (b *fillBatch) flush(p ProgressSink) {
	if b.blocks > 0 {
		p.ObserveFill(b.blocks, b.samples, time.Since(b.start))
		b.blocks, b.samples = 0, 0
	}
}

// ShiftTrials offsets a model's trial axis: trial t of the returned
// model is trial t+lo of m, so a (hi-lo)-trial study of it generates
// trials [lo, hi) of m bit for bit. The name carries the offset, so a
// dataset cache keys shifted studies apart; lo == 0 returns m itself,
// which shares cache entries with m's ordinary studies.
func ShiftTrials(m workload.Model, lo int) workload.Model {
	if lo == 0 {
		return m
	}
	return shiftedModel{Model: m, lo: lo}
}

type shiftedModel struct {
	workload.Model
	lo int
}

func (m shiftedModel) Name() string { return fmt.Sprintf("%s#t%d", m.Model.Name(), m.lo) }

func (m shiftedModel) FillProcessIteration(root *rng.Source, trial, rank, iter int, out []float64) {
	m.Model.FillProcessIteration(root, trial+m.lo, rank, iter, out)
}

// RunStream is the one fill routine: it executes the study under policy
// (the package doc explains static versus rebalancing fills) on up to
// workers goroutines (<= 0: GOMAXPROCS), handing per-iteration sample
// blocks to subscribed observers the moment they are produced and —
// when sink is nil — discarding them immediately afterwards, so a study
// whose caller only needs aggregates runs in O(workers x threads) live
// sample memory regardless of geometry. A non-nil sink must match cfg's
// geometry; its stripes are filled in place (zero copy) and the caller
// seals it afterwards.
//
// newObserver, when non-nil, is invoked once per fill worker; each worker
// feeds its own observer, so observers need no internal locking, and the
// created observers are returned for the caller to merge. progress, when
// non-nil, receives live fill telemetry (see ProgressSink). The result
// is deterministic in cfg.Seed regardless of scheduling because every
// (trial, rank, iteration) derives its own random stream — but the
// partition of blocks across observers depends on the worker count, so
// observer state must be merge-order-independent (as the mergeable
// accumulators in stats and analysis are).
func RunStream(model workload.Model, cfg Config, policy dlb.Spec, workers int, sink *trace.Sink, newObserver func() BlockObserver, progress ProgressSink) ([]BlockObserver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	resolved, err := policy.Resolve()
	if err != nil {
		return nil, err
	}
	if sink != nil {
		if sink.Trials() != cfg.Trials || sink.Ranks() != cfg.Ranks ||
			sink.Iterations() != cfg.Iterations || sink.Threads() != cfg.Threads {
			return nil, fmt.Errorf("cluster: sink geometry %dx%dx%dx%d does not match config %+v",
				sink.Trials(), sink.Ranks(), sink.Iterations(), sink.Threads(), cfg)
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if resolved.IsStatic() {
		return runStreamStatic(model, cfg, workers, sink, newObserver, progress)
	}
	return runStreamBalanced(model, cfg, resolved, workers, sink, newObserver, progress)
}

// stripeRange divides tasks contiguous stripes among workers: worker w
// owns [w*tasks/workers, (w+1)*tasks/workers), so every worker's share
// differs by at most one stripe and the assignment is a pure function
// of (tasks, workers) — no channel, no scheduler-dependent hand-off.
func stripeRange(tasks, workers, w int) (lo, hi int) {
	return w * tasks / workers, (w + 1) * tasks / workers
}

// runStreamStatic is the static fill loop: one task per (trial, rank),
// blocks produced in iteration order within the task. Workers are
// stripe-pinned: worker w owns a contiguous range of the trial-major
// stripe index s = trial*Ranks + rank, fixed up front, which makes the
// block→observer partition deterministic; the samples themselves do not
// depend on which worker fills them. Sinks attach by plain branches.
func runStreamStatic(model workload.Model, cfg Config, workers int, sink *trace.Sink, newObserver func() BlockObserver, progress ProgressSink) ([]BlockObserver, error) {
	root := rng.New(cfg.Seed)

	tasks := cfg.Trials * cfg.Ranks
	if workers > tasks {
		workers = tasks
	}
	var wg sync.WaitGroup
	var observers []BlockObserver
	for w := 0; w < workers; w++ {
		var obs BlockObserver
		if newObserver != nil {
			obs = newObserver()
			observers = append(observers, obs)
		}
		lo, hi := stripeRange(tasks, workers, w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch []float64
			if sink == nil {
				scratch = make([]float64, cfg.Threads)
			}
			var batch fillBatch
			for s := lo; s < hi; s++ {
				trial, rank := s/cfg.Ranks, s%cfg.Ranks
				var sw *trace.StripeWriter
				if sink != nil {
					sw = sink.Stripe(trial, rank)
				}
				for i := 0; i < cfg.Iterations; i++ {
					if progress != nil {
						batch.begin()
					}
					out := scratch
					if sw != nil {
						out = sw.AppendWith(func(out []float64) {
							model.FillProcessIteration(root, trial, rank, i, out)
						})
					} else {
						model.FillProcessIteration(root, trial, rank, i, out)
					}
					if obs != nil {
						obs.ObserveBlock(trial, rank, i, out)
					}
					if progress != nil {
						batch.add(progress, len(out))
					}
				}
				if progress != nil {
					batch.flush(progress)
				}
			}
		}()
	}
	wg.Wait()
	return observers, nil
}

// runStreamBalanced fills trial-major under a resolved non-static
// policy: each task owns one whole trial (its balancer, its ranks'
// stripes) and walks iterations in order so the balancer always decides
// iteration i+1 from iteration i's finishes. Workers are pinned to
// contiguous trial ranges, like runStreamStatic's stripes; distinct
// trials still fill concurrently, and within a task the per-stripe
// append contract of trace.Sink is honoured because a single goroutine
// owns all of the trial's stripe writers.
func runStreamBalanced(model workload.Model, cfg Config, policy dlb.Spec, workers int, sink *trace.Sink, newObserver func() BlockObserver, progress ProgressSink) ([]BlockObserver, error) {
	root := rng.New(cfg.Seed)

	if workers > cfg.Trials {
		workers = cfg.Trials
	}
	var wg sync.WaitGroup
	var observers []BlockObserver
	for w := 0; w < workers; w++ {
		var obs BlockObserver
		if newObserver != nil {
			obs = newObserver()
			observers = append(observers, obs)
		}
		lo, hi := stripeRange(cfg.Trials, workers, w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch []float64
			if sink == nil {
				scratch = make([]float64, cfg.Threads)
			}
			finish := make([]float64, cfg.Ranks)
			var writers []*trace.StripeWriter
			var batch fillBatch
			for trial := lo; trial < hi; trial++ {
				bal := policy.NewBalancer(cfg.Ranks, cfg.Threads)
				if sink != nil {
					writers = writers[:0]
					for r := 0; r < cfg.Ranks; r++ {
						writers = append(writers, sink.Stripe(trial, r))
					}
				}
				for i := 0; i < cfg.Iterations; i++ {
					alloc := bal.Alloc(i)
					lent := 0
					for r := 0; r < cfg.Ranks; r++ {
						if progress != nil {
							batch.begin()
						}
						if alloc[r] != cfg.Threads {
							lent++
						}
						out := scratch
						if sink != nil {
							out = writers[r].AppendWith(func(out []float64) {
								model.FillProcessIteration(root, trial, r, i, out)
								scaleBlock(out, cfg.Threads, alloc[r])
							})
						} else {
							model.FillProcessIteration(root, trial, r, i, out)
							scaleBlock(out, cfg.Threads, alloc[r])
						}
						finish[r] = blockMax(out)
						if obs != nil {
							obs.ObserveBlock(trial, r, i, out)
						}
						if progress != nil {
							batch.add(progress, len(out))
						}
					}
					bal.Observe(i, finish)
					if lent > 0 && progress != nil {
						progress.ObserveLend(lent)
					}
				}
				if progress != nil {
					batch.flush(progress)
				}
			}
		}()
	}
	wg.Wait()
	return observers, nil
}

// scaleBlock applies the work-conserving core-count model: the same
// block of work on alloc threads instead of base takes base/alloc times
// as long per sample.
func scaleBlock(out []float64, base, alloc int) {
	if alloc == base || alloc <= 0 {
		return
	}
	f := float64(base) / float64(alloc)
	for i := range out {
		out[i] *= f
	}
}

// blockMax returns the block's finish time: the max over its samples.
func blockMax(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
