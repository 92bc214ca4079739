# Local and CI entry points — .github/workflows/ci.yml invokes exactly
# these targets, so a green `make all` locally means a green CI run.

GO ?= go

# Coverage floor enforced by `make cover` (total statement coverage; the
# repo sat at 78.7% when the floor was introduced and crossed 80% with
# the telemetry/admission/chaos suites — raise it as the trajectory
# climbs, never lower it).
COVER_FLOOR ?= 80.0

.PHONY: all build test race race-fleet test-chaos test-scenario test-scripts test-bitident-v3 test-kernels bench bench-json bench-gate bench-baseline profile lint lint-fma lint-branchless fmt docs-check cover fuzz-smoke clean-store

all: build lint docs-check test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The federation failover suite under the race detector, uncached: a
# fleet of in-process workers with one killed mid-sweep must deliver
# every cell exactly once. The CLI's -fleet paths and the facade's
# FleetSweep start an in-process coordinator, so their tests run here
# too. `make race` covers these as well; this target re-runs them in
# isolation so CI records the failover proof explicitly. The one-IQR
# tests run here too: a local sweep row, fleet rows at two and three
# shards and StreamStudy agree bit for bit (TestFleetSweepIQRBitIdentical),
# and the streamed fold behind StreamStudy and the over-bound sweep
# cell, whose workers stripe (trial, rank), gives the same bits at any
# worker count. So does the study path's column pool: 16 concurrent
# studies, each filling a pooled column while others release theirs,
# answer what a serial server does (TestPooledColumnConcurrentStudiesMatchSerial),
# and a campaign's entries over one dataset answer concurrently on the
# one fill they share (TestCampaignGroupSharesOneFill,
# TestDeclinedWholeStudiesShareOneFill).
race-fleet:
	$(GO) test -race -count=1 -run 'Fleet|Coordinator|Shard|CacheBound|OverBound|PooledColumn|ShareOneFill' ./internal/fleet ./internal/serve ./cmd/earlybird .
	$(GO) test -race -count=1 -run 'TestStreamStudyBitIdenticalAcrossWorkers|TestFoldTrialsBitIdenticalAtAnyWorkerCount' ./internal/core

# The chaos suite under the race detector, uncached: fleets with
# injected latency, mid-stream disconnects, stalls, capacity drain,
# corrupt, truncated and mismatched shard records (never merged,
# counted as shard_rejects), armed stragglers (speculative re-dispatch
# must stay bit-identical), shedding workers (503 + Retry-After is
# busy, not dead), store corruption (old FNV-sealed records included),
# concurrent writers and mid-sweep membership churn must
# still deliver every sweep cell bit-identical to single-node
# execution, and the telemetry observer must not perturb a single
# generated bit (the no-perturbation fingerprints in internal/cluster).
test-chaos:
	$(GO) test -race -count=1 -run 'TestChaos|TestCapacity|TestWeighted|TestSetCapacity|TestShed|TestPlain503|TestStore|TestJoin|TestLease|TestDynamic' ./internal/fleet
	$(GO) test -race -count=1 -run 'TestProgressSink' ./internal/cluster

# The scenario compiler suite, uncached: parser/compiler round-trips,
# the coverage-verifier property test (compiled campaigns cover exactly
# the declared cross-product), the golden compiled-campaign plan for
# examples/scenarios/quick.yaml (refresh after an intentional plan
# change with `go test ./internal/scenario -run Golden -update`), and
# the /v1/scenario + CLI + fleet federation paths end to end.
test-scenario:
	$(GO) test -count=1 ./internal/scenario
	$(GO) test -count=1 -run 'Scenario|DispatchWhole' ./internal/serve ./internal/fleet ./cmd/earlybird

# Drop the durable result store a local coordinator accumulated
# (override STORE_DIR to match your -store-dir).
STORE_DIR ?= .earlybird-store
clean-store:
	rm -rf $(STORE_DIR)

# The exact analysis's bit-identity tests, uncached, built with
# GOAMD64=v3 (AVX2/BMI2/FMA code generation): the one-pass Study.Analyze
# against the pre-pass reference, the normality battery against the
# math.Pow moments, the one-pass moments themselves, the selection-based
# iteration IQR against the sorted one (TestIQRSelectBitIdentical), the
# Anderson-Darling verdict table against its interpolation bound and the
# reference statistic (TestADTableBound, a bound rather than bits: fused
# multiply-adds may move the table form's last bits but not out of its
# margin), the verdicts' fused sums against their references and the
# threshold K² against the reference's (TestThresholdK2Bound, bits for
# the sums, a bound for K²), sortx.Sort's padded networks against the
# pruned ones on both of its paths (TestSortBitIdentical), its AVX-512
# kernel against the networks it replaces at n = 33..64
# (TestKernelMatchesSortHalves, skipped on a runner without AVX-512F),
# the Anderson-Darling table sum's AVX-512 kernel against its Go loop
# (TestADKernelMatchesTable, a bound and equal verdicts, skipped the
# same way),
# the fleet shard paths — both driven by the shared block kernel —
# against single-node execution, and a local
# sweep cell above the one constant sample bound, folded on the fold's
# workers within its one state budget, against the same cell below it,
# folded on one worker
# (TestSweepRowSameAtAnyCacheBound, and the OverBound cells), the
# quantile histogram's order-free merge
# (TestQuantileHistogramMergeBitIdentical), StreamStudy and the streamed
# fold at any worker count (TestStreamStudyBitIdenticalAcrossWorkers,
# TestFoldTrialsBitIdenticalAtAnyWorkerCount) and the one
# IQR of a local sweep row, fleet rows and StreamStudy
# (TestFleetSweepIQRBitIdentical), and the fill itself: the static
# golden fingerprints and the with/without-progress-sink fingerprints of
# cluster's one fill loop per policy, and the delivery strategies, which
# price each message size once, against the same strategies over the
# reference link that prices every send (TestStrategiesBitIdenticalToLink
# and FuzzStrategyOrdering's seeds). The moments
# wrap each product in float64() so that no compiler may fuse it into an
# FMA (DESIGN.md, "Hot path & performance model"); this target re-proves
# the bits under amd64's wider instruction set and is the first slice of
# a GOAMD64 matrix.
test-bitident-v3:
	GOAMD64=v3 $(GO) test -count=1 -run 'BitIdentical|OnePassMoments|ADTableBound|PerSizeConsts|ThresholdK2Bound|KernelMatchesSortHalves|ADKernelMatchesTable' ./internal/stats/... ./internal/core ./internal/sortx
	GOAMD64=v3 $(GO) test -count=1 -run 'TestShardMergeBitIdenticalToSingleNode|TestShardStreamedPathBitIdentical|CacheBound|OverBound' ./internal/serve
	GOAMD64=v3 $(GO) test -count=1 -run 'TestFleetSweepIQRBitIdentical|TestStreamStudyMatchesSweepRowUnderEveryPolicy' ./internal/fleet
	GOAMD64=v3 $(GO) test -count=1 -run 'TestDLBStaticGoldenFingerprint|TestProgressSinkDoesNotPerturbFill' ./internal/cluster
	GOAMD64=v3 $(GO) test -count=1 -run 'TestStrategiesBitIdenticalToLink|FuzzStrategyOrdering' ./internal/partcomm

# The AVX-512 kernels against their Go oracles, verbose and uncached:
# sortx's bitonic sort (TestKernelMatchesSortHalves) and the
# Anderson-Darling table sum (TestADKernelMatchesTable). Each skips on a
# host without AVX-512F and says so, so the log shows whether the
# kernels ran on that runner or only their Go fallbacks did.
test-kernels:
	$(GO) test -count=1 -v -run 'KernelMatchesSortHalves|ADKernelMatchesTable' ./internal/sortx ./internal/stats/normality

# Shell-level tests for the repo's scripts: the bench gate's
# comparison verdicts (scripts/bench_gate_test.sh), in particular that a
# benchmark missing from the baseline fails loudly instead of sliding
# through ungated, and the -run pattern guard: every `|` alternative of
# test-bitident-v3's patterns must name a test under `go test -list`
# (scripts/check_run_patterns.sh, self-tested first), so renaming or
# deleting a test cannot quietly drop it from the GOAMD64=v3 job, and the
# same holds for test-kernels, race-fleet, test-chaos and test-scenario;
# and the documented-
# flag check of docs-check (scripts/check_cli_flags_test.sh) must pass
# listed flags and fail unlisted ones.
test-scripts:
	sh scripts/bench_gate_test.sh
	sh scripts/check_run_patterns_test.sh
	sh scripts/check_run_patterns.sh Makefile test-bitident-v3
	sh scripts/check_run_patterns.sh Makefile test-kernels
	sh scripts/check_run_patterns.sh Makefile race-fleet
	sh scripts/check_run_patterns.sh Makefile test-chaos
	sh scripts/check_run_patterns.sh Makefile test-scenario
	sh scripts/check_cli_flags_test.sh

# One iteration per benchmark: a smoke test that the benchmarks still
# compile and run, not a measurement.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Streaming-vs-materialised study benchmark at the paper's geometry,
# recorded as test2json events so the perf trajectory of the data plane
# accumulates across PRs (acceptance: streaming B/op >= 5x lower).
# BENCH_streaming.json is append-only: each run adds an entry, so the
# checked-in file is the benchmark trajectory across PRs (the README's
# trajectory table is read from it). BenchmarkStrategySweep does the
# same for the strategy lab's evaluator (acceptance: streaming B/op
# strictly below the materialised path), and BenchmarkFillDLB for the
# rebalancing fill loop (static vs LeWI throughput at paper geometry —
# the cost of the dynamic policy axis).
bench-json:
	$(GO) test -run '^$$' -bench 'BenchmarkStudy(Streaming|Materialized)$$' \
		-benchmem -benchtime=3x -json . >> BENCH_streaming.json
	@grep -o 'Benchmark[A-Za-z]*[ \t].*allocs/op' BENCH_streaming.json || true
	$(GO) test -run '^$$' -bench '^BenchmarkStrategySweep$$' \
		-benchmem -benchtime=3x -json ./internal/partcomm > BENCH_strategies.json
	@grep -oE '[0-9]+ ns/op[^"]*allocs/op' BENCH_strategies.json || true
	$(GO) test -run '^$$' -bench '^BenchmarkFillDLB$$' \
		-benchmem -benchtime=3x -json ./internal/cluster > BENCH_dlb.json
	@grep -oE '[0-9]+ ns/op[^"]*allocs/op' BENCH_dlb.json || true

# Regression gate: re-run the gated benchmarks (BenchmarkStudyStreaming,
# BenchmarkStudyAnalyze, BenchmarkShardObserve, BenchmarkShardWire,
# BenchmarkFillDLB) and
# fail on a >10% ns/op regression against the checked-in
# BENCH_baseline.txt. Threshold and
# run count are overridable: BENCH_GATE_PCT=15 BENCH_GATE_COUNT=5 make
# bench-gate.
# benchstat, when installed, prints the delta table; the gate decision
# itself needs only awk. Refresh the baseline with `make bench-baseline`
# on the reference machine after an intentional perf change.
bench-gate:
	sh scripts/bench_gate.sh

bench-baseline:
	sh scripts/bench_baseline.sh

# CPU + allocation profile of the streaming-study hot path
# (BenchmarkStudyStreaming), summarised to the terminal; the raw
# profiles stay in profiles/ for `go tool pprof` exploration.
profile:
	@mkdir -p profiles
	$(GO) test -run '^$$' -bench 'BenchmarkStudyStreaming$$' -benchtime 5x \
		-cpuprofile profiles/cpu.prof -memprofile profiles/mem.prof \
		-o profiles/earlybird.test .
	$(GO) tool pprof -top -nodecount=15 profiles/earlybird.test profiles/cpu.prof
	$(GO) tool pprof -top -nodecount=10 -sample_index=alloc_space \
		profiles/earlybird.test profiles/mem.prof

# Coverage profile + one-line summary + per-package table, uploaded as
# CI artifacts so the trajectory accumulates across PRs. Fails when the
# total drops below COVER_FLOOR. The per-package table is the profile
# run's own output — the suite executes once.
cover:
	@$(GO) test -coverprofile=coverage.out ./... > COVERAGE_PACKAGES.txt; \
	status=$$?; cat COVERAGE_PACKAGES.txt; [ $$status -eq 0 ]
	$(GO) tool cover -func=coverage.out | tail -n 1 | tee COVERAGE.txt
	@total=$$(grep -oE '[0-9]+\.[0-9]+%' COVERAGE.txt | tr -d '%'); \
	awk -v total="$$total" -v floor="$(COVER_FLOOR)" 'BEGIN { \
		if (total + 0 < floor + 0) { \
			printf "coverage %.1f%% is below the %.1f%% floor\n", total, floor; exit 1; \
		} \
		printf "coverage %.1f%% meets the %.1f%% floor\n", total, floor; \
	}'

# 10-second coverage-guided smokes of the strategy-ordering laws, of
# sortx.Select against a full sort, of sortx.Sort against the total
# order of the floats (a permutation of the bits when NaNs are in), of
# the filtered Anderson-Darling
# verdict against the reference statistic, of trace.ReadCSV (the inline
# CSV a /v1/scenario request may carry), of scenario.Parse (the
# hand-rolled YAML subset and JSON form of every scenario document, with
# scenario.Spec.Wire a fixed point), and of the decoders of bytes a
# fleet worker sends back: wire.Unseal, the /v1/shard record with
# the accumulator states inside it, dlb.Parse, which decodes the
# policy text in every record identity, the fleet's Retry-After
# parser, which reads a shedding worker's back-off header, and the
# -geometry flag grammar (cliopts.ParseGeometry, with
# cliopts.FormatGeometry a fixed point). The saved
# corpora replay in plain `make test` as well. The sample seeds of the
# verdict target, the captured trace seeding the CSV target and the
# record seeds of FuzzUnseal and FuzzShardRecord are hundreds of bytes
# to kilobytes long, and the fuzzer's default minimisation (up to 60 s
# per new input) would eat the whole smoke, so they minimise for at
# most 2 s; FuzzParseGeometry does too, so minimising cannot outlast
# its 10 s.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzStrategyOrdering$$' -fuzztime 10s ./internal/partcomm
	$(GO) test -run '^$$' -fuzz '^FuzzSelect$$' -fuzztime 10s ./internal/sortx
	$(GO) test -run '^$$' -fuzz '^FuzzSort$$' -fuzztime 10s ./internal/sortx
	$(GO) test -run '^$$' -fuzz '^FuzzADVerdict$$' -fuzztime 10s -fuzzminimizetime 2s ./internal/stats/normality
	$(GO) test -run '^$$' -fuzz '^FuzzVerdicts$$' -fuzztime 10s -fuzzminimizetime 2s ./internal/stats/normality
	$(GO) test -run '^$$' -fuzz '^FuzzReadCSV$$' -fuzztime 10s -fuzzminimizetime 2s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzScenarioParse$$' -fuzztime 10s -fuzzminimizetime 2s ./internal/scenario
	$(GO) test -run '^$$' -fuzz '^FuzzUnseal$$' -fuzztime 10s -fuzzminimizetime 2s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzShardRecord$$' -fuzztime 10s -fuzzminimizetime 2s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzDLBParse$$' -fuzztime 10s ./internal/dlb
	$(GO) test -run '^$$' -fuzz '^FuzzParseRetryAfter$$' -fuzztime 10s ./internal/fleet
	$(GO) test -run '^$$' -fuzz '^FuzzParseGeometry$$' -fuzztime 10s -fuzzminimizetime 2s ./internal/cliopts

# vet runs twice: for the host, which checks the AVX-512 kernels' frame
# and argument names against their declarations (asmdecl: sortx's
# kernel_amd64.s, normality's adkernel_amd64.s, cpuid's cpuid_amd64.s),
# and for arm64, so the build without the kernels (kernel_other.go,
# adkernel_other.go, cpuid_other.go) cannot break unseen on an amd64 CI
# runner.
lint:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	@fmtout=$$(gofmt -l .); \
	if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; \
	fi

# The FMA guard of the bit-exact moment loop: an arm64 build of
# internal/stats (the stock toolchain cross-compiles; no arm64 machine is
# needed) must emit no fused multiply-add inside centralMoments, whose
# float64() wraps keep D'Agostino's moments equal to the math.Pow
# reference, or inside SumSquaresAbout (VarianceAbout's
# sum), whose wrap keeps Variance, StdDev, Shapiro-Wilk's W and the
# Anderson-Darling statistic the same on every architecture, or inside
# internal/stats/normality's fusedMoments, the verdicts' one sweep that
# takes both sums and must keep their bits. amd64 never
# fuses, so no amd64 test run can catch a missing wrap. The self-test
# first proves the guard trips on an unwrapped copy of the loop
# (scripts/testdata/fmaguard).
lint-fma:
	sh scripts/lint_asm_test.sh fma
	sh scripts/lint_asm.sh fma ./internal/stats internal/stats/desc.go centralMoments SumSquaresAbout
	sh scripts/lint_asm.sh fma ./internal/stats/normality internal/stats/normality/verdict.go fusedMoments

# The branch guard of the partition, network and merge code: the amd64
# build of internal/sortx must list no conditional jump on a comparison
# line of sortx.partitionBelow (Select's partition passes, a float
# compare), the keyed networks or sortx.mergeRuns (integer compares).
# Their compares see fresh data, which a branch mispredicts about half
# the time; only the SETcc and CMOV forms are branch-free, and Go
# compiles `if x < v { j++ }` to a jump. No test sees the difference,
# and a benchmark that repeats one input hides it from the timings too.
# The self-test first proves the guard trips on the branchy copies in
# scripts/testdata/branchguard, one per kind of compare.
lint-branchless:
	sh scripts/lint_asm_test.sh branchless
	sh scripts/lint_asm.sh branchless ./internal/sortx internal/sortx/select.go partitionBelow
	sh scripts/lint_asm.sh branchless ./internal/sortx internal/sortx/networks.go network8 network16 network24 network32
	sh scripts/lint_asm.sh branchless ./internal/sortx internal/sortx/sortx.go mergeRuns

fmt:
	gofmt -w .

# Fail if any *.md referenced from README or Go sources is missing, or
# if the docs show a command flag that its -h does not list
# (scripts/check_cli_flags.sh).
docs-check:
	sh scripts/check-doc-links.sh
	sh scripts/check_cli_flags.sh
