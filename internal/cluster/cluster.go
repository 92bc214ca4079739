// Package cluster runs a full study job — trials x ranks x iterations x
// threads — over a workload model. RunStream is the one fill routine: it
// feeds per-iteration sample blocks to subscribed accumulators, so
// aggregate-only studies never materialise the dataset, and optionally
// writes them into a trace.Sink. RunColumnar is that routine into a
// sealed columnar store, Run its nested Dataset view, and ObserveTrials
// a bounded-memory, cursor-ordered fill of a trial range.
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
// and progress mean what they mean there. The dataset fingerprint is
// accumulated stripe-by-stripe while the samples are produced, so Seal
// pays no second pass over the data.
func RunColumnar(model workload.Model, cfg Config, policy dlb.Spec, workers int, progress ProgressSink) (*trace.Columnar, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sink := trace.NewSink(model.Name(), cfg.Trials, cfg.Ranks, cfg.Iterations, cfg.Threads)
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
// be safe for concurrent use: every fill worker calls ObserveFill after
// every produced block.
//
// No-perturbation contract: a sink only ever receives counts and
// durations, never the sample slice, so it cannot perturb the result
// path; and a nil sink costs a predicted nil test before and after each
// block — no clock read, no call — inside the same fill loop an
// attached sink runs (both properties are pinned by tests — golden
// fingerprints with/without a sink, and the bench gate).
type ProgressSink interface {
	// ObserveFill reports one produced process-iteration block: its
	// sample count and the worker time spent filling it.
	ObserveFill(samples int, busy time.Duration)
	// ObserveLend reports a DLB iteration boundary at which n ranks ran
	// on a lent (non-base) thread allocation. Never called under the
	// static policy.
	ObserveLend(n int)
}

// ObserveTrials fills trials [lo, hi) of cfg under policy and feeds obs
// every block in cursor order — trial, rank, then iteration, with
// absolute trial indices — so an order-sensitive observer folds exactly
// what a cursor over the materialised study would show it. At most
// maxSamples samples (or one block, if larger) are live at once: trials
// fill in runs that fit the bound, each run on up to workers goroutines
// (<= 0: one per CPU), and a static trial larger than the bound streams
// through one fill worker, whose stripe order is the cursor's. A
// rebalanced trial larger than the bound is refused: its ranks fill
// iteration by iteration together, so yielding them rank-major would
// mean holding the whole trial.
func ObserveTrials(model workload.Model, cfg Config, lo, hi int, policy dlb.Spec, workers, maxSamples int, obs BlockObserver, progress ProgressSink) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if lo < 0 || hi <= lo || hi > cfg.Trials {
		return fmt.Errorf("cluster: trial range [%d, %d) outside the geometry's %d trials", lo, hi, cfg.Trials)
	}
	resolved, err := policy.Resolve()
	if err != nil {
		return err
	}
	run := cfg
	run.Trials = 1
	perTrial := run.Samples()
	if perTrial > maxSamples {
		if !resolved.IsStatic() {
			return fmt.Errorf("cluster: a rebalanced trial of %d samples is over the %d-sample bound", perTrial, maxSamples)
		}
		run.Trials = hi - lo
		_, err := RunStream(ShiftTrials(model, lo), run, resolved, 1, nil,
			func() BlockObserver { return shiftedObserver{obs, lo} }, progress)
		return err
	}
	for t := lo; t < hi; t += run.Trials {
		run.Trials = min(maxSamples/perTrial, hi-t)
		col, err := RunColumnar(ShiftTrials(model, t), run, resolved, workers, progress)
		if err != nil {
			return err
		}
		for cur := col.Cursor(); cur.Next(); {
			b := cur.Block()
			obs.ObserveBlock(b.Trial+t, b.Rank, b.Iter, b.Times)
		}
	}
	return nil
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

// shiftedObserver restores the absolute trial of a ShiftTrials fill's
// blocks.
type shiftedObserver struct {
	BlockObserver
	lo int
}

func (o shiftedObserver) ObserveBlock(trial, rank, iter int, xs []float64) {
	o.BlockObserver.ObserveBlock(trial+o.lo, rank, iter, xs)
}

// RunStream is the one fill routine: it executes the study under policy
// (the package doc explains static versus rebalancing fills) on up to
// workers goroutines (<= 0: one per CPU), handing per-iteration sample
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
		workers = runtime.NumCPU()
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
			for s := lo; s < hi; s++ {
				trial, rank := s/cfg.Ranks, s%cfg.Ranks
				var sw *trace.StripeWriter
				if sink != nil {
					sw = sink.Stripe(trial, rank)
				}
				for i := 0; i < cfg.Iterations; i++ {
					var start time.Time
					if progress != nil {
						start = time.Now()
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
						progress.ObserveFill(len(out), time.Since(start))
					}
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
						var start time.Time
						if progress != nil {
							start = time.Now()
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
							progress.ObserveFill(len(out), time.Since(start))
						}
					}
					bal.Observe(i, finish)
					if lent > 0 && progress != nil {
						progress.ObserveLend(lent)
					}
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

// MustRun is Run for known-good configurations; it panics on error.
func MustRun(model workload.Model, cfg Config) *trace.Dataset {
	d, err := Run(model, cfg)
	if err != nil {
		panic(err)
	}
	return d
}
