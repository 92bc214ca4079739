#!/bin/sh
# Regenerate BENCH_baseline.txt — the reference the bench gate
# (scripts/bench_gate.sh) compares against. Run on the reference
# machine after an intentional perf change and commit the result; the
# gate then fails any future change that regresses a gated benchmark by
# more than BENCH_GATE_PCT percent.
set -eu

COUNT="${BENCH_GATE_COUNT:-5}"
OUT="${BENCH_BASELINE:-BENCH_baseline.txt}"

{
    go test -run '^$' -bench 'Benchmark(Study(Streaming|Analyze)|Shard(Observe|Wire))$' -benchmem -benchtime 3x -count "$COUNT" .
    go test -run '^$' -bench '^BenchmarkFillDLB$' -benchtime 3x -count "$COUNT" ./internal/cluster
} | tee "$OUT"
