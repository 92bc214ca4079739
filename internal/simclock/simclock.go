// Package simclock abstracts the per-core monotonic clock the paper's
// instrumentation is built on.
//
// The paper measures with clock_gettime(CLOCK_MONOTONIC), which POSIX only
// guarantees to be monotonic per core: without the tsc_reliable CPU
// synchronisation (absent on the paper's test platform), raw timestamps are
// not comparable across cores, sockets, or nodes. The paper's workaround is
// to derive "compute time" — the difference between a thread's region-exit
// and region-enter timestamps taken on the same core — which cancels any
// constant per-core offset.
//
// This package provides three clocks:
//
//   - Real: the host monotonic clock (same reading on every core), for live
//     kernel runs.
//   - Skewed: wraps another clock and adds a fixed per-core offset,
//     modelling unsynchronised TSCs. Tests use it to prove the compute-time
//     subtraction cancels skew (experiment E13).
//   - Virtual: fully controllable logical time for deterministic tests.
package simclock

import (
	"sync"
	"time"
)

// Clock returns the current reading of the monotonic clock as observed
// from the given core. Readings from the same core are non-decreasing;
// readings from different cores need not be mutually consistent.
type Clock interface {
	Now(core int) time.Duration
}

// Real reads the host's monotonic clock. All cores observe the same
// reading (Go's runtime already folds the per-CPU TSC into a single
// monotonic timeline).
type Real struct {
	base time.Time
}

// NewReal returns a Real clock whose origin is the moment of the call.
func NewReal() *Real { return &Real{base: time.Now()} }

// Now implements Clock.
func (r *Real) Now(core int) time.Duration { return time.Since(r.base) }

// Skewed wraps an inner clock and adds a constant per-core offset,
// emulating a platform without tsc_reliable.
type Skewed struct {
	inner   Clock
	offsets []time.Duration
}

// NewSkewed wraps inner with the given per-core offsets. Cores beyond
// len(offsets) wrap around.
func NewSkewed(inner Clock, offsets []time.Duration) *Skewed {
	if len(offsets) == 0 {
		offsets = []time.Duration{0}
	}
	return &Skewed{inner: inner, offsets: offsets}
}

// Now implements Clock.
func (s *Skewed) Now(core int) time.Duration {
	if core < 0 {
		core = -core
	}
	return s.inner.Now(core) + s.offsets[core%len(s.offsets)]
}

// Virtual is a logical clock advanced explicitly by the simulation.
// It is safe for concurrent use.
type Virtual struct {
	mu  sync.Mutex
	now time.Duration
}

// NewVirtual returns a Virtual clock at time zero.
func NewVirtual() *Virtual { return &Virtual{} }

// Now implements Clock. Every core observes the same logical time.
func (v *Virtual) Now(core int) time.Duration {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Advance moves logical time forward by d (d must be non-negative;
// negative advances are ignored to preserve monotonicity).
func (v *Virtual) Advance(d time.Duration) {
	if d < 0 {
		return
	}
	v.mu.Lock()
	v.now += d
	v.mu.Unlock()
}
