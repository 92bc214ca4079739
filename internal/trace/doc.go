// Package trace implements the paper's instrumentation methodology
// (Section 3.1) and the storage forms a study's samples live in.
//
// Instrumentation: the Recorder collects, per thread and per iteration,
// the monotonic timestamps at which a thread enters and exits a parallel
// compute region, and derives the thread's "compute time" — the elapsed
// nanoseconds between exit and enter. Raw monotonic readings are
// comparable only on the core that produced them (no tsc_reliable on the
// paper's platform); the derived compute time cancels any constant
// per-core offset and is therefore comparable across cores, sockets and
// nodes (experiment E13). See trace.go for the Listing 1 mirror.
//
// Storage: a study's samples form a dense relation over (trial, rank,
// iteration, thread, compute_seconds). The Columnar store keeps the one
// compute-time column flat with the four index columns implicit in the
// row number; Dataset is the nested [][][][] view over the same storage
// for random-access analysis. Data enters through a Sink (independent
// per-stripe writers, zero-copy fills, no per-sample work beyond the
// write) and leaves through Cursors (block-at-a-time zero-copy
// iteration) — the bounded-memory path the streaming analysis and the
// serve layer's NDJSON sweeps read. JSON and CSV round-trips live in
// dataset.go and csv.go.
package trace
