// Package fleet federates grid cells across a set of remote earlybirdd
// workers — the scatter/gather layer a serve.Server coordinator places
// cells through. It keeps placement, transport, merge and the durable
// store, and has no grid loop of its own: the coordinator (an earlybirdd
// -peers daemon, or the in-process one behind cmd/earlybird -fleet and
// earlybird.FleetSweep) expands a grid and hands the fleet one cell at
// a time, through DispatchCell (serve.FleetDispatcher) and DispatchWhole
// (serve.WholeDispatcher).
//
// A Fleet is a worker registry (health-probed over /v1/healthz) plus a
// cell scheduler. Sweep cells are split into contiguous trial shards and
// dispatched over POST /v1/shard, which returns mergeable accumulator
// state rather than finished rows, as one sealed binary record; the
// coordinator checks each record against the request it sent
// (serve.ShardRequest.Accept), merges shard states and finalizes the
// row. Because the accumulators key their partials by absolute trial
// and finalize in a fixed order, and the per-iteration quantile
// histograms behind the IQR statistics hold counts that depend only on
// the set of samples, the merged results are bit-identical to
// single-node execution for every metric — the IQR fields included —
// and the Table 1 row: see internal/analysis's partition-invariance
// property test and TestFleetSweepIQRBitIdentical.
//
// Scheduling is capacity-weighted rendezvous hashing on the cell's
// resolved engine.SpecKey: equal cells route to the same worker from
// any coordinator, so each worker's LRU dataset cache stays hot across
// repeated sweeps. Health probes read the capacity each worker reports
// in its /v1/healthz body (its live fill efficiency, from the telemetry
// layer) and scale that worker's rendezvous keys by it, so a degraded
// worker gracefully sheds new cells to the rest of the fleet instead of
// flipping between all-traffic and none. When every worker reports full
// capacity the weighted ranking is identical to the unweighted one.
//
// The health model distinguishes three worker states. A worker that
// times out, answers an unexplained 5xx, or sends a body that is
// truncated, over maxResponseBytes or refused by its decoder (a shard
// record with a bad seal, or for another cell or trial range) is
// *dead*: it is demoted and its shard fails over to the next
// survivor, so a worker killed mid-sweep costs re-execution of its
// in-flight shards, never a lost or duplicated cell. A worker that sheds with 503 + Retry-After (adaptive
// admission refusing load it cannot serve well right now) is *busy*: it
// keeps its registry slot and ranking, is skipped for new dispatch until
// the Retry-After deadline passes, and is never demoted — a fleet under
// pressure must not eat itself. Everything else is *idle* and eligible.
//
// On top of the corrected health model the scheduler is speculative: a
// shard whose in-flight duration exceeds a quantile of completed-shard
// latencies (a stats.QuantileHistogram fed by every successful
// request) is re-issued once to the next-ranked eligible worker, and the
// first result wins — the paper's early-bird insight applied to our own
// dispatch loop. Losing attempts run to completion so their health
// evidence (a straggler's eventual timeout) still lands; their results
// are discarded idempotently.
//
// Membership is dynamic when Options.Dynamic is set: workers register
// over POST /v1/fleet/join and hold a lease the coordinator's probe loop
// expires, so a worker that stops heartbeating deregisters itself by
// silence. Statically listed peers never expire. A Fleet may also carry
// a durable Store (Options.Store): merged cell results persist on disk
// keyed by the cell's SpecKey hash and are consulted before any
// dispatch, so a coordinator restart re-serves finished sweeps without
// touching a worker.
package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"earlybird/internal/fnv"
	"earlybird/internal/serve"
	"earlybird/internal/share"
	"earlybird/internal/stats"
)

// probeTimeout bounds one health probe.
const probeTimeout = 2 * time.Second

// Defaults for Options' zero values.
const (
	// DefaultLeaseTTL is how long a dynamically joined worker stays
	// registered without renewing; its heartbeat should re-join at a
	// fraction of this.
	DefaultLeaseTTL = 15 * time.Second
)

// The fleet-wide outstanding-request bound: maxInFlightPerWorker per
// static peer (so a coordinator over N peers keeps at most 2N shard and
// whole-cell requests in flight), or dynamicInFlight for a dynamic
// fleet that boots with no static peers (workers arrive by joining,
// after the semaphore is sized).
const (
	maxInFlightPerWorker = 2
	dynamicInFlight      = 16
)

// Speculation tuning: re-dispatch fires only after the latency histogram
// has seen speculationMinSamples completed requests, and only when the
// in-flight attempt has been out for more than speculationLatencyFactor
// times the speculationQuantile of completed-shard latencies (floored
// at minSpeculationDelay so tiny shards never speculate on scheduling
// jitter). The dispatch loop re-checks every speculationPoll.
const (
	speculationQuantile      = 0.95
	speculationMinSamples    = 8
	speculationLatencyFactor = 2.0
	minSpeculationDelay      = 50 * time.Millisecond
	speculationPoll          = 25 * time.Millisecond
)

// SplitPeers parses a comma-separated peer list (the -peers / -fleet
// flag format), dropping empty entries; New performs the per-URL
// validation.
func SplitPeers(csv string) []string {
	var peers []string
	for _, p := range strings.Split(csv, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	return peers
}

// Options configures a Fleet.
type Options struct {
	// Peers are the workers' base URLs (e.g. http://host:8080). At least
	// one is required unless Dynamic is set; static peers never lease-
	// expire.
	Peers []string
	// Client is the HTTP client for shard and probe traffic; nil means a
	// client without an overall timeout (shard execution time is
	// geometry-dependent; use Client to impose one).
	Client *http.Client
	// ShardsPerCell splits each cell's trial space into up to this many
	// contiguous shards, spread over distinct workers when possible.
	// 0 means one shard per healthy worker (capped at the cell's trial
	// count); 1 pins whole cells to single workers for maximum dataset
	// cache locality.
	ShardsPerCell int
	// Dynamic accepts workers at runtime through Join (the
	// /v1/fleet/join endpoint) and allows an empty initial Peers list.
	Dynamic bool
	// LeaseTTL is how long a joined worker stays registered without
	// renewing; 0 means DefaultLeaseTTL. Expired leases are evicted by
	// the StartProbes loop (or an explicit EvictExpired call).
	LeaseTTL time.Duration
	// Store, when non-nil, is the durable content-addressed result
	// store: merged cell rows persist under their SpecKey hash and are
	// consulted before dispatch, surviving coordinator restarts.
	Store *Store

	// maxInFlight, when positive, replaces the default in-flight bound,
	// and noSpeculation turns speculative re-dispatch off; tests set
	// them to widen the pipe or to have every attempt counted.
	maxInFlight   int
	noSpeculation bool
}

// minCapacity floors a worker's scheduling weight: even a saturated
// worker keeps a sliver of new cells so its recovery is observable
// without waiting for a probe cycle.
const minCapacity = 0.05

// worker is one registry entry.
type worker struct {
	url     string
	urlHash uint64
	// healthy is the dead-or-alive axis: false only for workers that
	// failed (transport error, timeout, unexplained 5xx). Shedding does
	// NOT clear it — see busyUntil.
	healthy  atomic.Bool
	shards   atomic.Int64
	failures atomic.Int64
	// sheds counts 503 + Retry-After refusals from this worker's
	// adaptive admission; each one sets busyUntil instead of demoting.
	sheds atomic.Int64
	// busyUntil (unix nanos) is the Retry-After deadline of the last
	// shed: dispatch skips the worker until it passes, without touching
	// its health or registry slot. 0 means not busy.
	busyUntil atomic.Int64
	// leaseUntil (unix nanos) is the membership lease of a dynamically
	// joined worker; the probe loop evicts it once expired. 0 means a
	// static peer that never expires.
	leaseUntil atomic.Int64
	// capacityBits holds the float64 bits of the worker's live scheduling
	// weight in (0, 1], as last reported by its health probe; workers
	// start (and plain-"ok" healthz bodies stay) at 1.
	capacityBits atomic.Uint64
}

func (w *worker) capacity() float64 { return math.Float64frombits(w.capacityBits.Load()) }

func (w *worker) setCapacity(c float64) {
	if math.IsNaN(c) || c <= 0 || c > 1 {
		c = 1
	} else if c < minCapacity {
		c = minCapacity
	}
	w.capacityBits.Store(math.Float64bits(c))
}

// busyFor returns how much of the worker's Retry-After window remains at
// now; 0 means the worker is not (or no longer) busy.
func (w *worker) busyFor(now time.Time) time.Duration {
	until := w.busyUntil.Load()
	if until == 0 {
		return 0
	}
	if d := time.Unix(0, until).Sub(now); d > 0 {
		return d
	}
	return 0
}

func (w *worker) markBusy(until time.Time) { w.busyUntil.Store(until.UnixNano()) }

// newWorkerEntry builds a registry entry in the starting state: healthy,
// full capacity.
func newWorkerEntry(url string) *worker {
	w := &worker{url: url, urlHash: fnv.Str(fnv.Offset64, url)}
	w.healthy.Store(true)
	w.setCapacity(1)
	return w
}

// normalizeURL canonicalises one peer URL the way New registers it.
func normalizeURL(raw string) (string, error) {
	u := strings.TrimRight(strings.TrimSpace(raw), "/")
	if u == "" {
		return "", fmt.Errorf("fleet: empty peer URL")
	}
	if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
		return "", fmt.Errorf("fleet: peer %q is not an http(s) URL", raw)
	}
	return u, nil
}

// Fleet is a federation coordinator. Create with New; safe for
// concurrent use. It implements serve.FleetDispatcher (and, when
// dynamic, serve.FleetMembership), so it can be plugged into a
// serve.Server (Options.Fleet) to make that server's /v1/sweep fan out
// transparently and its /v1/fleet/join accept workers.
type Fleet struct {
	opts     Options
	client   *http.Client
	leaseTTL time.Duration
	sem      chan struct{}
	store    *Store

	mu      sync.RWMutex
	workers []*worker

	cellsMerged      atomic.Int64
	cellsFailed      atomic.Int64
	shardsDispatched atomic.Int64
	failovers        atomic.Int64
	shardRejects     atomic.Int64
	sheds            atomic.Int64
	speculations     atomic.Int64
	speculationWins  atomic.Int64
	storeHits        atomic.Int64
	storeMisses      atomic.Int64
	joins            atomic.Int64
	evictions        atomic.Int64

	lat latencyTracker
}

// New validates the options and returns a ready fleet. Workers start
// healthy; call Probe (or StartProbes) to verify them, and let failover
// demote the ones that misbehave.
func New(opts Options) (*Fleet, error) {
	if len(opts.Peers) == 0 && !opts.Dynamic {
		return nil, fmt.Errorf("fleet: at least one peer URL is required (or Dynamic for join-based membership)")
	}
	f := &Fleet{opts: opts, client: opts.Client, store: opts.Store}
	if f.client == nil {
		f.client = &http.Client{}
	}
	f.leaseTTL = opts.LeaseTTL
	if f.leaseTTL <= 0 {
		f.leaseTTL = DefaultLeaseTTL
	}
	seen := map[string]bool{}
	for _, raw := range opts.Peers {
		u, err := normalizeURL(raw)
		if err != nil {
			return nil, err
		}
		if seen[u] {
			return nil, fmt.Errorf("fleet: duplicate peer %q", u)
		}
		seen[u] = true
		f.workers = append(f.workers, newWorkerEntry(u))
	}
	inFlight := opts.maxInFlight
	if inFlight <= 0 {
		inFlight = maxInFlightPerWorker * len(f.workers)
	}
	if inFlight <= 0 {
		inFlight = dynamicInFlight
	}
	f.sem = make(chan struct{}, inFlight)
	return f, nil
}

// snapshotWorkers copies the registry slice (the entries stay shared).
func (f *Fleet) snapshotWorkers() []*worker {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return append([]*worker(nil), f.workers...)
}

// Workers returns the registered peer URLs.
func (f *Fleet) Workers() []string {
	ws := f.snapshotWorkers()
	urls := make([]string, len(ws))
	for i, w := range ws {
		urls[i] = w.url
	}
	return urls
}

// Healthy returns how many workers are currently considered healthy
// (busy-but-alive workers count: shedding is not death).
func (f *Fleet) Healthy() int {
	n := 0
	for _, w := range f.snapshotWorkers() {
		if w.healthy.Load() {
			n++
		}
	}
	return n
}

// Join registers (or renews) a worker at runtime and returns the lease
// it must renew within. Re-joining an existing worker renews its lease,
// restores its health and updates its advertised capacity; joining a
// statically configured peer refreshes it without making it expirable.
// Errors on invalid URLs and on fleets not configured as Dynamic.
func (f *Fleet) Join(rawURL string, capacity float64) (time.Duration, error) {
	if !f.opts.Dynamic {
		return 0, fmt.Errorf("fleet: not accepting joins (static membership; start the coordinator with dynamic membership enabled)")
	}
	u, err := normalizeURL(rawURL)
	if err != nil {
		return 0, err
	}
	lease := time.Now().Add(f.leaseTTL)
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, w := range f.workers {
		if w.url != u {
			continue
		}
		if w.leaseUntil.Load() != 0 {
			w.leaseUntil.Store(lease.UnixNano()) // static peers stay static
		}
		w.healthy.Store(true)
		if capacity > 0 {
			w.setCapacity(capacity)
		}
		f.joins.Add(1)
		return f.leaseTTL, nil
	}
	w := newWorkerEntry(u)
	if capacity > 0 {
		w.setCapacity(capacity)
	}
	w.leaseUntil.Store(lease.UnixNano())
	f.workers = append(f.workers, w)
	f.joins.Add(1)
	return f.leaseTTL, nil
}

// Leave deregisters a worker immediately (the graceful-shutdown
// counterpart of lease expiry). It reports whether the worker was
// registered. In-flight requests to it complete normally.
func (f *Fleet) Leave(rawURL string) bool {
	u, err := normalizeURL(rawURL)
	if err != nil {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, w := range f.workers {
		if w.url == u {
			f.workers = append(append([]*worker(nil), f.workers[:i]...), f.workers[i+1:]...)
			return true
		}
	}
	return false
}

// EvictExpired removes dynamically joined workers whose lease has
// expired at now, returning how many were evicted. The StartProbes loop
// calls it every tick.
func (f *Fleet) EvictExpired(now time.Time) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	kept := make([]*worker, 0, len(f.workers))
	evicted := 0
	for _, w := range f.workers {
		if until := w.leaseUntil.Load(); until != 0 && now.UnixNano() > until {
			evicted++
			continue
		}
		kept = append(kept, w)
	}
	if evicted > 0 {
		f.workers = kept
		f.evictions.Add(int64(evicted))
	}
	return evicted
}

// Probe health-checks every worker concurrently (GET /v1/healthz) and
// returns the healthy count. Probes both demote dead workers and revive
// recovered ones, and read the capacity each healthy worker advertises
// in its healthz body (falling back to full capacity for bodies that
// don't carry one).
func (f *Fleet) Probe(ctx context.Context) int {
	workers := f.snapshotWorkers()
	share.FanOut(len(workers), len(workers), func(i int) {
		w := workers[i]
		pctx, cancel := context.WithTimeout(ctx, probeTimeout)
		defer cancel()
		req, err := http.NewRequestWithContext(pctx, http.MethodGet, w.url+"/v1/healthz", nil)
		if err != nil {
			w.healthy.Store(false)
			return
		}
		resp, err := f.client.Do(req)
		if err != nil {
			w.healthy.Store(false)
			return
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			w.healthy.Store(false)
			return
		}
		var hz struct {
			Capacity *float64 `json:"capacity"`
		}
		if json.Unmarshal(body, &hz) == nil && hz.Capacity != nil {
			w.setCapacity(*hz.Capacity)
		} else {
			w.setCapacity(1)
		}
		w.healthy.Store(true)
	})
	return f.Healthy()
}

// StartProbes re-probes the fleet every interval until ctx is done — the
// coordinator daemon's liveness loop. Each tick also evicts workers
// whose membership lease has expired. It returns immediately.
func (f *Fleet) StartProbes(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				f.EvictExpired(time.Now())
				f.Probe(ctx)
			}
		}
	}()
}

// Snapshot implements serve.FleetDispatcher: the registry and traffic
// counters for /v1/stats. The coordinator-side cell counters
// (CellsDispatched, LocalFallbacks) are filled by the serve layer.
func (f *Fleet) Snapshot() serve.FleetSnapshot {
	snap := serve.FleetSnapshot{
		Healthy:          f.Healthy(),
		CellsMerged:      f.cellsMerged.Load(),
		CellsFailed:      f.cellsFailed.Load(),
		ShardsDispatched: f.shardsDispatched.Load(),
		Failovers:        f.failovers.Load(),
		ShardRejects:     f.shardRejects.Load(),
		Sheds:            f.sheds.Load(),
		Speculations:     f.speculations.Load(),
		SpeculationWins:  f.speculationWins.Load(),
		StoreHits:        f.storeHits.Load(),
		StoreMisses:      f.storeMisses.Load(),
		Joins:            f.joins.Load(),
		LeaseEvictions:   f.evictions.Load(),
	}
	now := time.Now()
	ws := f.snapshotWorkers()
	snap.Peers = len(ws)
	for _, w := range ws {
		wsnap := serve.FleetWorkerSnapshot{
			URL:      w.url,
			Healthy:  w.healthy.Load(),
			Capacity: w.capacity(),
			Shards:   w.shards.Load(),
			Failures: w.failures.Load(),
			Sheds:    w.sheds.Load(),
		}
		if d := w.busyFor(now); d > 0 {
			wsnap.Busy = true
			wsnap.BusyForSec = d.Seconds()
		}
		if until := w.leaseUntil.Load(); until != 0 {
			wsnap.LeaseSec = time.Unix(0, until).Sub(now).Seconds()
		}
		snap.Workers = append(snap.Workers, wsnap)
	}
	return snap
}

// rank orders the fleet's workers for one (cell, shard) pair by
// capacity-weighted rendezvous hashing: every coordinator computes the
// same ranking (given the same probe readings), the top eligible worker
// takes the shard, and the ranking itself is the failover order. Busy
// (shedding) workers keep their rank — eligibility is dispatch's
// concern, and a worker whose Retry-After lapses mid-cell re-enters
// exactly where the hash put it. Each worker's 64-bit rendezvous score
// is mapped to u in (0,1) and weighted as capacity / -ln(u) — the
// standard weighted-rendezvous key, under which a worker's share of the
// key space is proportional to its capacity. -ln(u) is strictly
// decreasing in u, so with equal capacities the weighted order equals
// the raw-score order and shard placement (hence dataset cache
// locality) is unchanged from the unweighted scheduler. Shard 0's
// ranking depends only on the cell key, so a one-shard cell lands on
// the same worker sweep after sweep while capacities are equal.
func (f *Fleet) rank(cellHash uint64, shard int) []*worker {
	type scored struct {
		w   *worker
		key float64
	}
	workers := f.snapshotWorkers()
	base := fnv.U64(fnv.U64(fnv.Offset64, cellHash), uint64(shard))
	ss := make([]scored, len(workers))
	for i, w := range workers {
		score := fnv.U64(base, w.urlHash)
		// u in (0,1): offset by 0.5 so u is never exactly 0 or 1.
		u := (float64(score) + 0.5) / float64(1<<63) / 2
		ss[i] = scored{w: w, key: w.capacity() / -math.Log(u)}
	}
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].key != ss[j].key {
			return ss[i].key > ss[j].key
		}
		return ss[i].w.url < ss[j].w.url
	})
	ranked := make([]*worker, len(ss))
	for i, s := range ss {
		ranked[i] = s.w
	}
	return ranked
}

// errNotPlaced reports that every worker was tried or ineligible and
// none could take the request — the caller should fall back to local
// execution. The message carries the routing context (cell hash, shard)
// and each worker's health/busy state, so "nothing took it" is
// diagnosable instead of a bare nil-cause shrug.
type errNotPlaced struct {
	cell    uint64
	shard   int
	workers []string
	last    error
}

// notPlaced assembles an errNotPlaced with the current registry state.
// shard < 0 (with cell 0) means the caller had no routing context.
func (f *Fleet) notPlaced(cell uint64, shard int, last error) error {
	now := time.Now()
	ws := f.snapshotWorkers()
	states := make([]string, 0, len(ws))
	for _, w := range ws {
		st := "healthy"
		if !w.healthy.Load() {
			st = "unhealthy"
		}
		if d := w.busyFor(now); d > 0 {
			st += fmt.Sprintf(" busy(%s)", d.Round(time.Millisecond))
		}
		states = append(states, w.url+" "+st)
	}
	return errNotPlaced{cell: cell, shard: shard, workers: states, last: last}
}

func (e errNotPlaced) Error() string {
	var b strings.Builder
	b.WriteString("fleet: ")
	if e.shard >= 0 {
		fmt.Fprintf(&b, "cell %016x shard %d ", e.cell, e.shard)
	}
	b.WriteString("not placed on any worker")
	if e.last != nil {
		fmt.Fprintf(&b, " (last failure: %v)", e.last)
	}
	if len(e.workers) > 0 {
		fmt.Fprintf(&b, "; workers: %s", strings.Join(e.workers, ", "))
	} else {
		b.WriteString("; no workers registered")
	}
	return b.String()
}

// errCell is a non-retryable per-cell failure (the worker answered 4xx):
// the request itself is bad and would fail identically everywhere.
type errCell struct{ msg string }

func (e errCell) Error() string { return e.msg }

// errShed reports a worker's adaptive admission refusing the request
// with 503 + Retry-After: the worker is alive and explicitly told us
// when to come back. Dispatch marks it busy — never dead.
type errShed struct {
	retryAfter time.Duration
	msg        string
}

func (e errShed) Error() string {
	return fmt.Sprintf("worker shedding for %s: %s", e.retryAfter, e.msg)
}

// maxRetryAfter caps the back-off a worker's Retry-After can impose:
// five times the longest hint the serve admission layer emits (60 s),
// and far below where a Duration could overflow.
const maxRetryAfter = 5 * time.Minute

// parseRetryAfter reads the delta-seconds form of a Retry-After header
// (what our admission layer emits): decimal digits only, floored at 1 s
// and clamped to maxRetryAfter. HTTP-date values are not recognised:
// without a parseable back-off the 503 stays an ordinary worker fault.
func parseRetryAfter(h string) (time.Duration, bool) {
	h = strings.TrimSpace(h)
	if h == "" {
		return 0, false
	}
	var d time.Duration
	for i := 0; i < len(h); i++ {
		c := h[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		// Past the cap every further digit only validates.
		if d < maxRetryAfter {
			d = 10*d + time.Duration(c-'0')*time.Second
		}
	}
	return min(max(d, time.Second), maxRetryAfter), true
}

// latencyTracker wraps a quantile histogram of completed-shard
// latencies (not itself concurrency-safe) with the lock the speculation
// trigger needs.
type latencyTracker struct {
	mu   sync.Mutex
	hist stats.QuantileHistogram
}

func (l *latencyTracker) observe(d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.hist.Add(d.Seconds())
}

// threshold returns the elapsed in-flight duration beyond which a shard
// should speculate, or ok == false while too few requests have completed
// to estimate one.
func (l *latencyTracker) threshold() (time.Duration, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.hist.N() < speculationMinSamples {
		return 0, false
	}
	th := time.Duration(speculationLatencyFactor * l.hist.Quantile(speculationQuantile) * float64(time.Second))
	if th < minSpeculationDelay {
		th = minSpeculationDelay
	}
	return th, true
}

// maxResponseBytes caps the 200 body the coordinator reads from a
// worker. The largest answer is a /v1/shard record, whose state grows
// with trials x iterations plus one quantile histogram per iteration,
// each count of its occupied span in 1, 2 or 4 bytes: 149–157 KiB for
// one paper-geometry trial (1x8x200x48), 212–230 KiB for ten, and at
// most ~2.1 KiB per iteration plus 32 bytes per trial-iteration at any
// geometry. The coordinator decodes a state only within the request's
// trials and iterations (ShardRequest.Accept), so what a body makes it
// allocate is bounded by the request, not by the body's length. A body
// declared or found to be longer is a worker fault.
const maxResponseBytes = 256 << 20

// readBody reads a 200 body into one buffer: sized from a declared
// Content-Length when there is one, grown up to maxResponseBytes when
// there is not. A declared or actual length over the cap, or a body
// shorter than declared, is an error.
func readBody(resp *http.Response) ([]byte, error) {
	n := resp.ContentLength
	if n > maxResponseBytes {
		return nil, fmt.Errorf("declared body of %d bytes exceeds the %d-byte cap", n, maxResponseBytes)
	}
	if n >= 0 {
		buf := make([]byte, n)
		if _, err := io.ReadFull(resp.Body, buf); err != nil {
			return nil, fmt.Errorf("body shorter than its %d-byte Content-Length: %w", n, err)
		}
		return buf, nil
	}
	buf, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes+1))
	if err != nil {
		return nil, err
	}
	if len(buf) > maxResponseBytes {
		return nil, fmt.Errorf("body exceeds the %d-byte cap", maxResponseBytes)
	}
	return buf, nil
}

// post sends one pre-marshalled JSON request under the in-flight bound
// and returns the raw 200 response body. Transport failures, bodies
// that are truncated or over maxResponseBytes, and unexplained 5xx
// answers are retryable (the worker is at fault); 4xx answers are not
// (the request is at fault); a 503 carrying a parseable Retry-After is
// an errShed — the worker is alive and busy, and the caller must not
// demote it.
func (f *Fleet) post(ctx context.Context, w *worker, path string, body []byte) (raw []byte, retryable bool, err error) {
	select {
	case f.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
	defer func() { <-f.sem }()

	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	f.shardsDispatched.Add(1)
	resp, err := f.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nil, false, ctx.Err() // caller cancelled; not the worker's fault
		}
		return nil, true, err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
		raw, err := readBody(resp)
		if err != nil {
			if ctx.Err() != nil {
				return nil, false, ctx.Err()
			}
			return nil, true, fmt.Errorf("reading %s response: %w", path, err)
		}
		return raw, false, nil
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		var eb struct {
			Error string `json:"error"`
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if json.Unmarshal(msg, &eb) == nil && eb.Error != "" {
			return nil, false, errCell{msg: eb.Error}
		}
		return nil, false, errCell{msg: fmt.Sprintf("%s: %s", resp.Status, bytes.TrimSpace(msg))}
	case resp.StatusCode == http.StatusServiceUnavailable:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if ra, ok := parseRetryAfter(resp.Header.Get("Retry-After")); ok {
			var eb struct {
				Error string `json:"error"`
			}
			detail := string(bytes.TrimSpace(msg))
			if json.Unmarshal(msg, &eb) == nil && eb.Error != "" {
				detail = eb.Error
			}
			return nil, false, errShed{retryAfter: ra, msg: detail}
		}
		return nil, true, fmt.Errorf("worker answered %s: %s", resp.Status, bytes.TrimSpace(msg))
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, true, fmt.Errorf("worker answered %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
}

// jsonInto returns a dispatch decode func that unmarshals a JSON body
// into out.
func jsonInto(out any) func([]byte) error {
	return func(raw []byte) error { return json.Unmarshal(raw, out) }
}

// attempt is one in-flight post's resolution, delivered on dispatch's
// results channel. Health bookkeeping (demotion, busy-marking, counters)
// happens inside the attempt goroutine before the send, so a losing
// attempt that resolves after the winner still lands its evidence.
type attempt struct {
	w           *worker
	raw         []byte
	err         error
	retryable   bool
	speculative bool
}

// dispatch tries one request against the (cell, shard) rendezvous
// ranking. The body is marshalled once and reused across every attempt.
// Eligible (healthy, not busy) workers are tried in rank order:
// retryable failures demote the worker and fail over to the next; sheds
// mark the worker busy until its Retry-After and move on without
// demoting; a 4xx or caller cancellation stops immediately. While an
// attempt is in flight and taking longer than the speculation threshold
// (a quantile over completed-request latencies), one backup attempt is
// issued to the next eligible worker and the first success wins — the
// loser runs to completion and is discarded. Each successful body goes
// to decode, in dispatch's goroutine; a body decode refuses is the
// worker's fault, like a mid-stream disconnect — the worker is demoted
// and the request fails over. dispatch returns the worker whose body
// decode accepted.
func (f *Fleet) dispatch(ctx context.Context, cellHash uint64, shard int, path string, body any, decode func([]byte) error) (*worker, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	ranked := f.rank(cellHash, shard)

	results := make(chan attempt, len(ranked)+1)
	next, active := 0, 0
	// launch starts one attempt on the next eligible ranked worker,
	// reporting whether anyone was left to try.
	launch := func(speculative bool) bool {
		now := time.Now()
		for next < len(ranked) {
			w := ranked[next]
			next++
			if !w.healthy.Load() || w.busyFor(now) > 0 {
				continue
			}
			active++
			go func(w *worker) {
				start := time.Now()
				raw, retryable, err := f.post(ctx, w, path, buf)
				if err == nil {
					f.lat.observe(time.Since(start))
					results <- attempt{w: w, raw: raw, speculative: speculative}
					return
				}
				var shed errShed
				if errors.As(err, &shed) {
					w.markBusy(time.Now().Add(shed.retryAfter))
					w.sheds.Add(1)
					f.sheds.Add(1)
				} else if retryable {
					w.failures.Add(1)
					w.healthy.Store(false)
					f.failovers.Add(1)
				}
				results <- attempt{w: w, err: err, retryable: retryable, speculative: speculative}
			}(w)
			return true
		}
		return false
	}

	if !launch(false) {
		return nil, f.notPlaced(cellHash, shard, nil)
	}
	var specTick *time.Ticker
	var specC <-chan time.Time
	if !f.opts.noSpeculation {
		specTick = time.NewTicker(speculationPoll)
		specC = specTick.C
		defer specTick.Stop()
	}
	started := time.Now()
	speculated := false
	var lastErr error
	for active > 0 {
		select {
		case a := <-results:
			active--
			if a.err == nil {
				if err := decode(a.raw); err != nil {
					a.w.failures.Add(1)
					a.w.healthy.Store(false)
					f.failovers.Add(1)
					lastErr = fmt.Errorf("decoding %s response: %w", path, err)
					break
				}
				a.w.shards.Add(1)
				if a.speculative {
					f.speculationWins.Add(1)
				}
				return a.w, nil
			}
			var shed errShed
			if !a.retryable && !errors.As(a.err, &shed) {
				return nil, a.err // errCell or ctx cancellation
			}
			lastErr = a.err
		case <-specC:
			if speculated {
				continue
			}
			if th, ok := f.lat.threshold(); ok && time.Since(started) > th {
				if launch(true) {
					speculated = true
					f.speculations.Add(1)
				}
			}
			continue
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		// An attempt failed (retryable, shed, or undecodable): if nothing
		// else is still in flight, fail over to the next eligible worker.
		if active == 0 && !launch(false) {
			return nil, f.notPlaced(cellHash, shard, lastErr)
		}
	}
	return nil, f.notPlaced(cellHash, shard, lastErr)
}
