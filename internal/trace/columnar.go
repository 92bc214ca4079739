// Columnar storage for thread-timing studies.
//
// A study's samples form a dense relation over five logical columns —
// trial, rank, iteration, thread, compute_seconds. Because the geometry is
// rectangular, the four index columns are affine functions of the row
// number and never need to be materialised: the Columnar store keeps the
// single compute-time column flat in (trial, rank, iteration, thread)
// order and decodes coordinates on demand. At the paper's geometry this is
// one 768000-element float64 column (6 MiB) with zero pointer overhead;
// the nested Dataset view is a thin index built over the same storage.
//
// Data enters through a Sink: per-(trial, rank) StripeWriters append one
// process iteration at a time, each writer independent of the others so a
// parallel fill needs no locking. Data leaves through a Cursor:
// block-at-a-time iteration over process iterations, each block a
// zero-copy view of the column.

package trace

import (
	"fmt"
	"sync/atomic"
)

// Columnar is the compact, immutable columnar form of a study: the
// geometry header plus the flat compute-time column. It is produced by a
// Sink (or adopted from a Dataset) and read through Cursors or the nested
// Dataset view; the campaign engine caches datasets in this form.
type Columnar struct {
	app        string
	trials     int
	ranks      int
	iterations int
	threads    int
	times      []float64
}

// newColumnar returns a store of the given geometry over times when
// its length is the geometry's sample count, and over a fresh zeroed
// column otherwise.
func newColumnar(times []float64, app string, trials, ranks, iterations, threads int) *Columnar {
	if trials < 1 || ranks < 1 || iterations < 1 || threads < 1 {
		panic("trace: columnar geometry must be positive")
	}
	if n := trials * ranks * iterations * threads; len(times) != n {
		times = make([]float64, n)
	}
	return &Columnar{
		app:        app,
		trials:     trials,
		ranks:      ranks,
		iterations: iterations,
		threads:    threads,
		times:      times,
	}
}

// App returns the application name.
func (c *Columnar) App() string { return c.app }

// Trials returns the trial count.
func (c *Columnar) Trials() int { return c.trials }

// Ranks returns the rank count.
func (c *Columnar) Ranks() int { return c.ranks }

// Iterations returns the iteration count.
func (c *Columnar) Iterations() int { return c.iterations }

// Threads returns the thread count.
func (c *Columnar) Threads() int { return c.threads }

// NumSamples returns the total number of samples.
func (c *Columnar) NumSamples() int { return len(c.times) }

// NumProcessIterations returns trials x ranks x iterations.
func (c *Columnar) NumProcessIterations() int { return c.trials * c.ranks * c.iterations }

// blockOffset returns the flat offset of process iteration (t, r, i).
func (c *Columnar) blockOffset(t, r, i int) int {
	return ((t*c.ranks+r)*c.iterations + i) * c.threads
}

// Block returns the thread samples of one (trial, rank, iteration) as a
// zero-copy view into the column. Callers must not mutate it.
func (c *Columnar) Block(trial, rank, iter int) []float64 {
	if trial < 0 || trial >= c.trials || rank < 0 || rank >= c.ranks || iter < 0 || iter >= c.iterations {
		panic(fmt.Sprintf("trace: block (%d,%d,%d) outside %dx%dx%d", trial, rank, iter, c.trials, c.ranks, c.iterations))
	}
	off := c.blockOffset(trial, rank, iter)
	return c.times[off : off+c.threads : off+c.threads]
}

// TimesColumn returns the full compute-time column in (trial, rank,
// iteration, thread) order, zero-copy. Callers must not mutate it.
func (c *Columnar) TimesColumn() []float64 { return c.times }

// Coord decodes the (trial, rank, iteration, thread) coordinates of one
// row of the column — the four implicit index columns of the relation.
func (c *Columnar) Coord(row int) (trial, rank, iter, thread int) {
	thread = row % c.threads
	row /= c.threads
	iter = row % c.iterations
	row /= c.iterations
	rank = row % c.ranks
	trial = row / c.ranks
	return
}

// Fingerprint returns Dataset.Fingerprint of the store's nested view.
// Every call hashes the whole column; nothing caches it, because no
// production path reads it: tests use it to pin a fill's bits (the
// static goldens, fills with and without a progress sink).
func (c *Columnar) Fingerprint() uint64 { return c.Dataset().Fingerprint() }

// nestedViews counts the nested views Dataset has built.
var nestedViews atomic.Int64

// NestedViews returns how many nested [][][][] views Columnar.Dataset
// has built in this process. Consumers that stay on the columnar cursor
// path (streaming analysis, NDJSON sweeps, the strategy lab) never build
// one, so tests read it before and after a call to prove that the call
// never materialised the tensor form.
func NestedViews() int64 { return nestedViews.Load() }

// Dataset builds the nested [][][][] view over the columnar storage. The
// view shares the column — no samples are copied. The result must be
// treated as read-only.
func (c *Columnar) Dataset() *Dataset {
	nestedViews.Add(1)
	d := &Dataset{
		App:        c.app,
		Trials:     c.trials,
		Ranks:      c.ranks,
		Iterations: c.iterations,
		Threads:    c.threads,
		col:        c,
	}
	d.Times = make([][][][]float64, c.trials)
	flat := c.times
	for t := range d.Times {
		d.Times[t] = make([][][]float64, c.ranks)
		for r := range d.Times[t] {
			d.Times[t][r] = make([][]float64, c.iterations)
			for i := range d.Times[t][r] {
				d.Times[t][r][i], flat = flat[:c.threads:c.threads], flat[c.threads:]
			}
		}
	}
	return d
}

// Cursor returns a cursor over every process iteration in deterministic
// (trial, rank, iteration) order.
func (c *Columnar) Cursor() *Cursor { return c.CursorRange(0, c.iterations) }

// CursorRange returns a cursor restricted to iterations in [fromIter,
// toIter), for phase-wise analysis.
func (c *Columnar) CursorRange(fromIter, toIter int) *Cursor {
	return newCursor(c.trials, c.ranks, c.iterations, fromIter, toIter, c.Block)
}

// Block is one process iteration yielded by a Cursor: its coordinates plus
// a zero-copy view of the thread samples. The view is only valid until the
// cursor advances; consumers must not mutate or retain it.
type Block struct {
	Trial, Rank, Iter int
	Times             []float64
}

// Cursor iterates a study block-at-a-time in deterministic (trial, rank,
// iteration) order. It is not safe for concurrent use.
type Cursor struct {
	trials, ranks    int
	fromIter, toIter int
	block            func(t, r, i int) []float64
	t, r, i          int
	cur              Block
}

func newCursor(trials, ranks, iterations, fromIter, toIter int, block func(t, r, i int) []float64) *Cursor {
	if fromIter < 0 {
		fromIter = 0
	}
	if toIter > iterations {
		toIter = iterations
	}
	return &Cursor{
		trials:   trials,
		ranks:    ranks,
		fromIter: fromIter,
		toIter:   toIter,
		block:    block,
		t:        0,
		r:        0,
		i:        fromIter - 1,
	}
}

// Next advances to the next process iteration; it returns false when the
// cursor is exhausted.
func (c *Cursor) Next() bool {
	if c.fromIter >= c.toIter || c.t >= c.trials {
		return false
	}
	c.i++
	if c.i >= c.toIter {
		c.i = c.fromIter
		c.r++
		if c.r >= c.ranks {
			c.r = 0
			c.t++
			if c.t >= c.trials {
				return false
			}
		}
	}
	c.cur = Block{Trial: c.t, Rank: c.r, Iter: c.i, Times: c.block(c.t, c.r, c.i)}
	return true
}

// Block returns the current block. Only valid after Next returned true.
func (c *Cursor) Block() Block { return c.cur }

// Sink is an append-only columnar writer for one study. Each (trial,
// rank) stripe has an independent StripeWriter, so a parallel fill writes
// without locks. A writer only copies (or lets the producer write) the
// samples and advances its stripe's count; the fill does no per-sample
// work beyond that.
type Sink struct {
	col *Columnar
	// next counts the iterations appended to each (trial, rank) stripe.
	next []int
}

// NewSink returns a sink for the given geometry.
func NewSink(app string, trials, ranks, iterations, threads int) *Sink {
	return NewSinkInto(nil, app, trials, ranks, iterations, threads)
}

// NewSinkInto is NewSink writing into times when its length is the
// geometry's sample count (a recycled column, say), and into a fresh
// column otherwise. A sealed sink has written every sample, so what
// times held before does not reach the store.
func NewSinkInto(times []float64, app string, trials, ranks, iterations, threads int) *Sink {
	col := newColumnar(times, app, trials, ranks, iterations, threads)
	return &Sink{col: col, next: make([]int, trials*ranks)}
}

// App returns the application name the sink was created with.
func (s *Sink) App() string { return s.col.app }

// Trials returns the sink's trial count.
func (s *Sink) Trials() int { return s.col.trials }

// Ranks returns the sink's rank count.
func (s *Sink) Ranks() int { return s.col.ranks }

// Iterations returns the sink's iteration count.
func (s *Sink) Iterations() int { return s.col.iterations }

// Threads returns the sink's thread count.
func (s *Sink) Threads() int { return s.col.threads }

// Stripe returns the writer for one (trial, rank) stripe. Distinct
// stripes may be written from distinct goroutines concurrently; a single
// stripe's writer must only be used from one goroutine at a time.
func (s *Sink) Stripe(trial, rank int) *StripeWriter {
	if trial < 0 || trial >= s.col.trials || rank < 0 || rank >= s.col.ranks {
		panic(fmt.Sprintf("trace: stripe (%d,%d) outside %dx%d", trial, rank, s.col.trials, s.col.ranks))
	}
	return &StripeWriter{
		sink: s,
		next: &s.next[trial*s.col.ranks+rank],
		base: s.col.blockOffset(trial, rank, 0),
	}
}

// StripeWriter appends process iterations to one (trial, rank) stripe in
// iteration order.
type StripeWriter struct {
	sink *Sink
	next *int
	base int
}

// nextView reserves the destination view of the next iteration.
func (w *StripeWriter) nextView() []float64 {
	c := w.sink.col
	if *w.next >= c.iterations {
		panic("trace: stripe already complete")
	}
	off := w.base + *w.next*c.threads
	return c.times[off : off+c.threads : off+c.threads]
}

// Append copies one process iteration's thread samples into the stripe.
func (w *StripeWriter) Append(xs []float64) {
	out := w.nextView()
	if len(xs) != len(out) {
		panic(fmt.Sprintf("trace: appending %d samples to a %d-thread stripe", len(xs), len(out)))
	}
	copy(out, xs)
	*w.next++
}

// AppendWith hands the next iteration's backing storage to fill — letting
// producers write samples in place with no copy — then advances. It
// returns the written view so the caller can feed subscribed accumulators
// before moving on; the view must not be mutated afterwards.
func (w *StripeWriter) AppendWith(fill func(out []float64)) []float64 {
	out := w.nextView()
	fill(out)
	*w.next++
	return out
}

// Seal verifies that every stripe is complete and returns the finished
// store. The sink must not be written after Seal.
func (s *Sink) Seal() (*Columnar, error) {
	for i, next := range s.next {
		if next != s.col.iterations {
			return nil, fmt.Errorf("trace: stripe (%d,%d) has %d of %d iterations",
				i/s.col.ranks, i%s.col.ranks, next, s.col.iterations)
		}
	}
	return s.col, nil
}
