// Package omp is a small OpenMP-like fork/join runtime: a pool of
// persistent worker goroutines that execute parallel regions with
// work-sharing loops (static, dynamic and guided schedules), explicit
// barriers, and nowait semantics.
//
// It exists so that the paper's instrumentation pattern (Listing 1) can be
// reproduced verbatim in Go:
//
//	pool.Parallel(func(tc *omp.ThreadContext) {
//	    t := tc.ThreadNum()
//	    tc.Barrier()                    // #pragma omp barrier
//	    tStart[i][t] = clock.Now(t)     // clock_gettime(CLOCK_MONOTONIC, ...)
//	    tc.For(n, omp.Static, 0, func(j int) { /* work */ }) // for nowait
//	    tEnd[i][t] = clock.Now(t)
//	    tc.Barrier()                    // #pragma omp barrier
//	})
//
// Loops never include an implied barrier — they are all "nowait", matching
// the instrumentation's requirement that each thread's exit timestamp be
// taken immediately after its own share of the iterations.
package omp

import (
	"sync"
	"sync/atomic"
)

// Schedule selects a work-sharing loop schedule, mirroring OpenMP's
// schedule(static|dynamic|guided) clauses.
type Schedule int

const (
	// Static divides iterations into contiguous equal blocks, one per
	// thread (chunk == 0), or round-robins fixed chunks (chunk > 0).
	Static Schedule = iota
	// Dynamic hands out fixed-size chunks from a shared counter on demand.
	Dynamic
	// Guided hands out exponentially shrinking chunks with a minimum
	// chunk size.
	Guided
)

// String returns the OpenMP clause name of the schedule.
func (s Schedule) String() string {
	switch s {
	case Static:
		return "static"
	case Dynamic:
		return "dynamic"
	case Guided:
		return "guided"
	default:
		return "unknown"
	}
}

// Pool is a team of persistent worker goroutines, analogous to the OpenMP
// thread team of one process. A Pool must be closed when no longer needed.
type Pool struct {
	n       int
	tasks   []chan task
	wg      sync.WaitGroup // tracks worker goroutines for Close
	closed  atomic.Bool
	barrier *Barrier
}

type task struct {
	body func(tc *ThreadContext)
	reg  *region
	done *sync.WaitGroup
}

// NewPool starts a team of n worker goroutines (n >= 1).
func NewPool(n int) *Pool {
	if n < 1 {
		panic("omp: pool size must be >= 1")
	}
	p := &Pool{
		n:       n,
		tasks:   make([]chan task, n),
		barrier: NewBarrier(n),
	}
	for i := 0; i < n; i++ {
		p.tasks[i] = make(chan task)
		p.wg.Add(1)
		go p.worker(i)
	}
	return p
}

func (p *Pool) worker(id int) {
	defer p.wg.Done()
	for t := range p.tasks[id] {
		tc := &ThreadContext{id: id, region: t.reg}
		t.body(tc)
		t.done.Done()
	}
}

// NumThreads returns the team size (omp_get_num_threads).
func (p *Pool) NumThreads() int { return p.n }

// Parallel runs body once on every thread of the team and returns when all
// threads have finished — a fork/join parallel region.
func (p *Pool) Parallel(body func(tc *ThreadContext)) {
	p.ParallelTeam(p.n, body)
}

// ParallelTeam runs a fork/join parallel region on a dynamically sized
// team of n threads (threads 0..n-1 of the pool), like a parallel region
// with a num_threads clause under a DLB runtime that has lent the
// remaining cores away: barriers and work-sharing loops see the
// region's team size, not the pool's, so the same
// region body runs correctly at any ownership level. n is clamped to the
// pool size; n < 1 panics.
func (p *Pool) ParallelTeam(n int, body func(tc *ThreadContext)) {
	if p.closed.Load() {
		panic("omp: Parallel on closed pool")
	}
	if n < 1 {
		panic("omp: parallel team size must be >= 1")
	}
	if n > p.n {
		n = p.n
	}
	reg := &region{team: n, barrier: p.barrier}
	if n != p.n {
		reg.barrier = NewBarrier(n)
	}
	var done sync.WaitGroup
	done.Add(n)
	for i := 0; i < n; i++ {
		p.tasks[i] <- task{body: body, reg: reg, done: &done}
	}
	done.Wait()
}

// Close shuts the team down. The pool must not be used afterwards.
func (p *Pool) Close() {
	if p.closed.Swap(true) {
		return
	}
	for _, ch := range p.tasks {
		close(ch)
	}
	p.wg.Wait()
}

// region holds the per-parallel-region shared state: one loopState per
// textual work-sharing construct, identified by the order in which threads
// reach it (all threads of a region must execute the same sequence of
// work-sharing constructs, as in OpenMP).
type region struct {
	// team is the region's thread count — the pool size for Parallel,
	// possibly fewer for ParallelTeam — and barrier is sized to match.
	team    int
	barrier *Barrier

	mu    sync.Mutex
	loops []*loopState
}

func (r *region) loop(seq, n, nthreads int, sched Schedule, chunk int) *loopState {
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.loops) <= seq {
		r.loops = append(r.loops, nil)
	}
	if r.loops[seq] == nil {
		r.loops[seq] = newLoopState(n, nthreads, sched, chunk)
	}
	return r.loops[seq]
}

// ThreadContext is the per-thread view of a parallel region.
type ThreadContext struct {
	id      int
	region  *region
	loopSeq int
}

// ThreadNum returns this thread's id within the team (omp_get_thread_num).
func (tc *ThreadContext) ThreadNum() int { return tc.id }

// Barrier blocks until every thread of the region's team has reached it.
func (tc *ThreadContext) Barrier() { tc.region.barrier.Wait() }

// For executes a work-shared loop over [0, n) with the given schedule.
// chunk <= 0 selects the schedule's default (block partition for static,
// 1 for dynamic and guided). The loop is always "nowait": the thread
// returns as soon as its own iterations are done.
func (tc *ThreadContext) For(n int, sched Schedule, chunk int, body func(i int)) {
	seq := tc.loopSeq
	tc.loopSeq++
	ls := tc.region.loop(seq, n, tc.region.team, sched, chunk)
	ls.run(tc.id, body)
}
