package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"earlybird/internal/scenario"
	"earlybird/internal/wire"
	"earlybird/perfbench/calib"
)

// Traced-run sizes, in timed samples: the baseline phase runs the real
// program untraced; the replay phase records the spans.
const (
	baselineSamples = 30
	replaySamples   = 30
)

// runTraced measures the per-layer ledger in two phases. The baseline
// phase sends the workload's requests to the real servers, untraced —
// the end-to-end reference, the program's own cache and fleet counters,
// and (on fleet-sweep) wall-clock timings of the fleet's seams. The
// replay phase sends the same requests to handlers that make the same
// public calls with a span around each, and folds the spans into per-
// layer self times on the process CPU clock.
func runTraced(cfg config, out io.Writer) (result, error) {
	kern := calib.NewKernel()
	batch := cfg.workload.batch

	inst, err := cfg.workload.setup(&env{timed: true}, cfg.seed)
	if err != nil {
		return result{}, fmt.Errorf("baseline set-up: %w", err)
	}
	c0, err := inst.counters()
	if err != nil {
		inst.close()
		return result{}, err
	}
	if fs, ok := inst.(*fleetSweep); ok {
		fs.timer.reset()
	}
	next := 0
	base := timedPhase(inst, batch, kern, &next, baselineSamples, 0)
	c1, err := inst.counters()
	cnt := c1.minus(c0)
	var seams fleetSeams
	if fs, ok := inst.(*fleetSweep); ok {
		seams = fs.timer.summary()
	}
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return result{}, err
	}

	tr := newTracer()
	rinst, err := cfg.workload.setup(&env{tr: tr}, cfg.seed)
	if err != nil {
		return result{}, fmt.Errorf("replay set-up: %w", err)
	}
	attempted, failed, firstErr := base.requests, base.failed, base.firstErr
	var kernB []float64
	runtime.GC()
	for i, req := 0, 0; i < replaySamples; i++ {
		for j := 0; j < batch; j++ {
			root := tr.begin(rootName, req+1, 0)
			tr.setCurrent(req+1, root)
			if err := rinst.do(req); err != nil {
				failed++
				if firstErr == nil {
					firstErr = fmt.Errorf("replayed request %d: %w", req, err)
				}
			}
			tr.end(root)
			tr.setCurrent(0, 0)
			req++
			attempted++
		}
		kernB = append(kernB, float64(kern.Run()))
	}
	probes, err := runProbes(cfg, rinst, kern)
	if cerr := rinst.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return result{}, err
	}

	spans := tr.snapshot()
	if err := saveSpans(cfg, spans); err != nil {
		return result{}, err
	}
	traced := slices.DeleteFunc(slices.Clone(spans), func(s span) bool { return s.req == 0 })
	led := buildLedger(traced)
	scale := calib.NominalMs / median(kernB) // reference ms per CPU ns
	values := ledgerValues(led, scale)
	for k, v := range probes {
		values[k] = v
	}
	values["serve.result_hit_ratio"] = ratio(cnt.resultHits, cnt.resultLookups)
	values["engine.dataset_hit_ratio"] = ratio(cnt.datasetHits, cnt.datasetLookups)
	values["fleet.speculations"] = float64(cnt.speculations)
	values["fleet.failovers"] = float64(cnt.failovers)
	values["fleet.dispatch_ms"] = seams.dispatchMs
	values["fleet.overhead_ms"] = seams.overheadMs
	values["fleet.shard_skew_ms"] = seams.skewMs
	if _, ok := rinst.(*fleetSweep); ok {
		values["fleet.wall_p50_ms"] = median(base.wallNs) / 1e6
	}
	values["runtime.gc_cpu_pct"] = 100 * base.gcCPUFrac
	values["calib.ref_ms"] = median(base.kernNs) / 1e6
	values["raw.cpu_p50_ms"] = median(base.rawMs(batch))
	untraced := sum(base.calibrated(batch)) / float64(len(base.cpuNs))
	values["trace.overhead_pct"] = 100 * (values["trace.e2e_ms"] - untraced) / untraced

	printLedger(out, led, scale, values, untraced)
	fmt.Fprintf(out, "counters (baseline phase): result cache %d/%d hits, dataset cache %d/%d hits, speculations %d, failovers %d\n",
		cnt.resultHits, cnt.resultLookups, cnt.datasetHits, cnt.datasetLookups, cnt.speculations, cnt.failovers)
	if seams.cells > 0 {
		fmt.Fprintf(out, "fleet seams (baseline phase, wall clock, medians over %d cells): dispatch %.3f ms, overhead %.3f ms, shard skew %.3f ms; request wall p50 %.3f ms\n",
			seams.cells, seams.dispatchMs, seams.overheadMs, seams.skewMs, values["fleet.wall_p50_ms"])
	}
	if firstErr != nil {
		fmt.Fprintln(out, "first failure:", firstErr)
	}
	fmt.Fprintf(out, "drift: calib.ref_ms %.4f, raw.cpu_p50_ms %.4f\n", values["calib.ref_ms"], values["raw.cpu_p50_ms"])
	return report(out, layerSchema, values, attempted, failed)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// ledgerValues converts the ledger to the span-timed layer metrics, in
// reference units per request, plus its reconciliation totals.
func ledgerValues(l ledger, scale float64) map[string]float64 {
	v := map[string]float64{}
	for _, d := range layerSchema {
		v[d.name] = 0
	}
	for name, spanName := range spanMetrics {
		ms := l.perRequest(spanName) * scale
		if strings.HasSuffix(name, "_us") {
			ms *= 1000
		}
		v[name] = ms
	}
	if l.requests > 0 {
		v["cluster.fill_alloc_mb"] = l.bytes["cluster.fill"] / float64(l.requests) / (1 << 20)
		v["trace.e2e_ms"] = l.rootCPU / float64(l.requests) * scale
		v["trace.layers_ms"] = (l.rootCPU - l.self[rootName]) / float64(l.requests) * scale
		v["trace.unexplained_pct"] = 100 * l.self[rootName] / l.rootCPU
	}
	if n := l.count["analysis.marshal"]; n > 0 {
		v["analysis.state_kb"] = l.bytes["analysis.marshal"] / float64(n) / 1024
	}
	return v
}

// printLedger prints every layer's self time per request and its share
// of the traced end-to-end CPU, then the reconciliation.
func printLedger(out io.Writer, l ledger, scale float64, v map[string]float64, untraced float64) {
	fmt.Fprintf(out, "ledger: %d traced requests; self CPU per request in reference ms; share of traced end-to-end CPU\n", l.requests)
	for _, name := range l.layers() {
		label := name
		if name == rootName {
			label = "(unexplained: request outside any layer call)"
		}
		ms := l.perRequest(name) * scale
		fmt.Fprintf(out, "  %-46s %12.5f ms %6.2f%%  (%d spans)\n", label, ms, 100*ms/v["trace.e2e_ms"], l.count[name])
	}
	fmt.Fprintf(out, "reconciliation: sum of layer self times %.5f ms vs traced end-to-end CPU %.5f ms per request: trace.unexplained_pct %.3f%% (base: traced end-to-end CPU per request)\n",
		v["trace.layers_ms"], v["trace.e2e_ms"], v["trace.unexplained_pct"])
	fmt.Fprintf(out, "tracing overhead: traced %.5f ms vs untraced %.5f ms per request: trace.overhead_pct %.3f%% (base: untraced end-to-end CPU per request)\n",
		v["trace.e2e_ms"], untraced, v["trace.overhead_pct"])
}

// saveSpans writes the run's spans under the checkout's build directory.
func saveSpans(cfg config, spans []span) error {
	dir := filepath.Join(cfg.root, ".bench_build")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.tsv", cfg.workload.name, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// probe times n calls of fn on the process CPU clock and returns
// reference microseconds per call.
func probe(kern *calib.Kernel, n int, fn func() error) (float64, error) {
	runtime.GC()
	t0 := calib.ProcessCPU()
	for i := 0; i < n; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	cpu := calib.ProcessCPU() - t0
	return calib.Scale(cpu, kern.Run()) * 1000 / float64(n), nil
}

// runProbes times the predictive layers that are off today's request
// path: sealing one shard's accumulator state (fleet-sweep) and
// compiling plus verifying the example scenario (study-hot).
func runProbes(cfg config, inst instance, kern *calib.Kernel) (map[string]float64, error) {
	v := map[string]float64{}
	switch w := inst.(type) {
	case *fleetSweep:
		state := w.replay.sampled
		if len(state) == 0 {
			return nil, fmt.Errorf("no shard state was captured for the wire probe")
		}
		var sealed []byte
		var err error
		if v["wire.seal_us"], err = probe(kern, 2000, func() error {
			wr := wire.Writer{Buf: make([]byte, 0, len(state)+8)}
			wr.Buf = append(wr.Buf, state...)
			sealed = wr.Seal()
			return nil
		}); err != nil {
			return nil, err
		}
		if v["wire.unseal_us"], err = probe(kern, 2000, func() error {
			_, err := wire.Unseal(sealed)
			return err
		}); err != nil {
			return nil, err
		}
	case *studyHot:
		path := filepath.Join(cfg.root, "examples", "scenarios", "quick.yaml")
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("scenario probe: %w", err)
		}
		opts := scenario.CompileOptions{BaseDir: filepath.Dir(path)}
		if v["scenario.compile_verify_us"], err = probe(kern, 50, func() error {
			spec, err := scenario.Parse(data)
			if err != nil {
				return err
			}
			c, err := spec.Compile(opts)
			if err != nil {
				return err
			}
			_, err = c.Verify()
			return err
		}); err != nil {
			return nil, fmt.Errorf("scenario probe: %w", err)
		}
	}
	return v, nil
}

// fleetSeams are the baseline phase's wall-clock fleet timings, medians
// over cells.
type fleetSeams struct {
	cells                          int
	dispatchMs, overheadMs, skewMs float64
}

func (c *cellTimer) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.cells)
	clear(c.shard)
}

// summary pairs each dispatched cell with its shards: overhead is the
// dispatch time beyond the slowest shard, skew the slowest shard beyond
// the mean shard (the paper's idle time, applied to shards).
func (c *cellTimer) summary() fleetSeams {
	c.mu.Lock()
	defer c.mu.Unlock()
	var disp, over, skew []float64
	for id, d := range c.cells {
		sh := c.shard[id]
		if len(sh) == 0 {
			continue
		}
		slowest, total := time.Duration(0), time.Duration(0)
		for _, s := range sh {
			slowest = max(slowest, s)
			total += s
		}
		mean := float64(total) / float64(len(sh))
		disp = append(disp, float64(d)/1e6)
		over = append(over, float64(d-slowest)/1e6)
		skew = append(skew, (float64(slowest)-mean)/1e6)
	}
	return fleetSeams{cells: len(disp), dispatchMs: median(disp), overheadMs: median(over), skewMs: median(skew)}
}
