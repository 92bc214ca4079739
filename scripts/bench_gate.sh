#!/bin/sh
# Benchmark regression gate: re-runs the gated benchmarks and compares
# their best ns/op against the checked-in BENCH_baseline.txt. Fails when
# any gated benchmark regresses by more than BENCH_GATE_PCT percent
# (default 10). When benchstat is on PATH its delta table is printed as
# a report; the pass/fail decision is the awk comparison below, so the
# gate works on a bare container too.
#
# Gated benchmarks:
#   BenchmarkStudyStreaming   — the end-to-end streaming study hot path
#   BenchmarkStudyAnalyze/*   — the exact analysis pass (Study.Analyze)
#   BenchmarkShardObserve/*   — the block kernel over one trial shard
#   BenchmarkShardWire/*      — one trial shard's sealed record, encoded,
#                               accepted and merged
#   BenchmarkFillDLB/*        — the static and LeWI fill loops
#
# The comparison uses the minimum ns/op across -count runs on both
# sides: minimums are far more stable than means on shared CI hardware,
# where the noise is strictly additive. Refresh the baseline by running
# scripts/bench_baseline.sh on the reference machine after an
# intentional perf change, and commit the result.
set -eu

PCT="${BENCH_GATE_PCT:-10}"
COUNT="${BENCH_GATE_COUNT:-3}"
BASELINE="${BENCH_BASELINE:-BENCH_baseline.txt}"
CURRENT="${BENCH_CURRENT:-BENCH_current.txt}"

if [ ! -f "$BASELINE" ]; then
    echo "bench gate: missing $BASELINE (run scripts/bench_baseline.sh and commit it)" >&2
    exit 1
fi

# BENCH_GATE_COMPARE_ONLY=1 skips the benchmark run and compares an
# existing $CURRENT against $BASELINE — scripts/bench_gate_test.sh uses
# it to exercise every verdict path without running real benchmarks.
if [ "${BENCH_GATE_COMPARE_ONLY:-0}" = "1" ]; then
    if [ ! -f "$CURRENT" ]; then
        echo "bench gate: compare-only mode needs $CURRENT" >&2
        exit 1
    fi
else
    {
        go test -run '^$' -bench 'Benchmark(Study(Streaming|Analyze)|Shard(Observe|Wire))$' -benchmem -benchtime 3x -count "$COUNT" .
        go test -run '^$' -bench '^BenchmarkFillDLB$' -benchtime 3x -count "$COUNT" ./internal/cluster
    } | tee "$CURRENT"
fi

if command -v benchstat >/dev/null 2>&1; then
    echo
    echo "== benchstat baseline vs current =="
    benchstat "$BASELINE" "$CURRENT" || true
fi

echo
awk -v pct="$PCT" '
    # Collect min ns/op per benchmark from both files. Result lines look
    # like "BenchmarkName[-P] <count> <value> ns/op ..."; the GOMAXPROCS
    # suffix is stripped so baselines port across core counts.
    /^Benchmark/ && $4 == "ns/op" {
        name = $1
        sub(/-[0-9]+$/, "", name)
        v = $3 + 0
        if (FILENAME == ARGV[1]) {
            if (!(name in base) || v < base[name]) base[name] = v
        } else {
            if (!(name in cur) || v < cur[name]) cur[name] = v
        }
    }
    END {
        fail = 0
        n = 0
        for (name in base) n++
        if (n == 0) {
            print "bench gate: no benchmark results parsed from baseline"
            exit 1
        }
        for (name in base) {
            if (!(name in cur)) {
                printf "bench gate: %s missing from current run\n", name
                fail = 1
                continue
            }
            limit = base[name] * (1 + pct / 100)
            verdict = "ok"
            if (cur[name] > limit) {
                verdict = "REGRESSION"
                fail = 1
            }
            printf "bench gate: %-40s base %12.0f ns/op  current %12.0f ns/op  (limit +%s%%: %12.0f)  %s\n", \
                name, base[name], cur[name], pct, limit, verdict
        }
        # A benchmark that ran but has no baseline entry must fail
        # loudly: silently skipping it would let a newly gated (or
        # renamed) benchmark drift with no gate at all until someone
        # noticed the baseline was stale.
        for (name in cur) {
            if (!(name in base)) {
                printf "bench gate: %s missing from baseline (refresh with scripts/bench_baseline.sh and commit)\n", name
                fail = 1
            }
        }
        exit fail
    }
' "$BASELINE" "$CURRENT"
