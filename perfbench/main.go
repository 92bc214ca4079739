// Command perfbench is the repository's service benchmark: it drives one
// workload against in-process serve/fleet servers on loopback HTTP from
// a single closed-loop client, checks every answer, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer ledger) as one
// JSON object on its last output line. Run it through run.sh from the
// repository root:
//
//	bash perfbench/run.sh --workload study-cold --seed 1 --seconds 20 --trace 0
//
// Every timing is process CPU time divided by the CPU time of a fixed
// calibration kernel run next to it, reported in reference units (see
// package calib). The README next to this file documents the workloads,
// metrics and the noise sources the design avoids.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"earlybird/perfbench/calib"
)

// setupReps is how many times a run builds its workload's set-up; the
// reported setup_s is their median, and the last one serves the timed
// phase.
const setupReps = 5

// hardLimit stops a timed phase that cannot reach its sample count.
const hardLimit = 120 * time.Second

// gcPercent pins the collector's pacing whatever GOGC the environment
// sets: allocation per request is a gated metric and peak RSS follows
// the pacing.
const gcPercent = 100

type config struct {
	workload workloadDef
	seed     int64
	seconds  int
	trace    bool
	root     string
}

func main() {
	res, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: study-cold, study-hot or fleet-sweep")
	seed := fs.Int64("seed", 1, "seed every request of the run derives from")
	seconds := fs.Int("seconds", 20, "minimum length of the timed phase")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end run")
	root := fs.String("root", ".", "repository checkout (for examples/scenarios)")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, root: *root}
	for _, w := range workloads {
		if w.name == *name {
			cfg.workload = w
		}
	}
	if cfg.workload.name == "" {
		return cfg, fmt.Errorf("unknown workload %q", *name)
	}
	if *trace != 0 && *trace != 1 {
		return cfg, fmt.Errorf("-trace must be 0 or 1")
	}
	if cfg.seconds < 1 {
		return cfg, fmt.Errorf("-seconds must be at least 1")
	}
	return cfg, nil
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, out io.Writer) (result, error) {
	cfg, err := parseFlags(args)
	if err != nil {
		return result{}, err
	}
	runtime.GOMAXPROCS(gomaxprocs)
	debug.SetGCPercent(gcPercent)
	fmt.Fprintf(out, "workload %s seed %d: %s; GOMAXPROCS=%d GOGC=%d\n",
		cfg.workload.name, cfg.seed, cfg.workload.describe, gomaxprocs, gcPercent)
	if cfg.trace {
		return runTraced(cfg, out)
	}
	return runTimed(cfg, out)
}

// setupResult is a workload set up setupReps times.
type setupResult struct {
	inst   instance
	setupS float64 // median calibrated set-up time, reference seconds
}

// setUp builds the workload setupReps times, timing each build on the
// process CPU clock against a kernel run right after it; all but the
// last build are torn down again.
func setUp(cfg config, env *env, kern *calib.Kernel) (setupResult, error) {
	var times []float64
	var inst instance
	for r := 0; r < setupReps; r++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return setupResult{}, err
			}
		}
		runtime.GC()
		t0 := calib.ProcessCPU()
		var err error
		inst, err = cfg.workload.setup(env, cfg.seed)
		cpu := calib.ProcessCPU() - t0
		if err != nil {
			return setupResult{}, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, calib.Scale(cpu, kern.Run())/1000)
	}
	return setupResult{inst: inst, setupS: median(times)}, nil
}

// samples is a timed phase's per-sample record.
type samples struct {
	cpuNs     []float64 // process CPU per sample, kernel time excluded
	kernNs    []float64 // thread CPU of the kernel run after each sample
	wallNs    []float64
	requests  int
	failed    int
	firstErr  error
	allocB    float64
	gcCPUFrac float64
	// rssMiB is the process high-water mark once minSamples samples
	// are done: a fixed amount of work, so it does not grow with how
	// many requests a run's seconds happen to fit.
	rssMiB float64
	rssErr error
}

// rawMs returns each sample's uncalibrated CPU per request in ms.
func (s *samples) rawMs(batch int) []float64 {
	out := make([]float64, len(s.cpuNs))
	for i, c := range s.cpuNs {
		out[i] = c / 1e6 / float64(batch)
	}
	return out
}

// calibrated returns each sample's per-request cost in reference ms,
// scaled by the median of the neighbouring kernel runs.
func (s *samples) calibrated(batch int) []float64 {
	kern := windowMedians(s.kernNs, 2)
	out := make([]float64, len(s.cpuNs))
	for i, c := range s.cpuNs {
		out[i] = calib.Scale(int64(c), int64(kern[i])) / float64(batch)
	}
	return out
}

// timedPhase sends batches of batch requests until the phase has lasted
// minDur and holds minSamples samples, running the kernel after every
// batch. A sample's CPU is everything the process spent from one batch
// start to the next, minus the kernel's own thread time — so garbage
// collection triggered by a batch is charged to it.
func timedPhase(inst instance, batch int, kern *calib.Kernel, next *int, minSamples int, minDur time.Duration) samples {
	var s samples
	runtime.GC()
	a0, g0 := readAllocs()
	start := time.Now()
	prev := calib.ProcessCPU()
	for (len(s.cpuNs) < minSamples || time.Since(start) < minDur) && time.Since(start) < hardLimit {
		w0 := time.Now()
		for j := 0; j < batch; j++ {
			if err := inst.do(*next); err != nil {
				s.failed++
				if s.firstErr == nil {
					s.firstErr = fmt.Errorf("request %d: %w", *next, err)
				}
			}
			*next++
			s.requests++
		}
		wall := time.Since(w0)
		k := kern.Run()
		now := calib.ProcessCPU()
		s.cpuNs = append(s.cpuNs, float64(now-prev-k))
		s.kernNs = append(s.kernNs, float64(k))
		s.wallNs = append(s.wallNs, float64(wall))
		if len(s.cpuNs) == minSamples {
			s.rssMiB, s.rssErr = peakRSSMiB()
			now = calib.ProcessCPU() // the read is charged to no sample
		}
		prev = now
	}
	a1, g1 := readAllocs()
	s.allocB = a1.allocs - a0.allocs
	if d := a1.cpuTotal - a0.cpuTotal; d > 0 {
		s.gcCPUFrac = (g1 - g0) / d
	}
	return s
}

type allocReading struct{ allocs, cpuTotal float64 }

// readAllocs reads cumulative heap allocation bytes, total CPU seconds
// and GC CPU seconds from runtime/metrics.
func readAllocs() (allocReading, float64) {
	ms := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(ms)
	return allocReading{allocs: float64(ms[0].Value.Uint64()), cpuTotal: ms[1].Value.Float64()}, ms[2].Value.Float64()
}

// peakRSSMiB reads the process high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// runTimed is the untraced end-to-end run.
func runTimed(cfg config, out io.Writer) (result, error) {
	kern := calib.NewKernel()
	su, err := setUp(cfg, &env{}, kern)
	if err != nil {
		return result{}, err
	}
	next := 0
	s := timedPhase(su.inst, cfg.workload.batch, kern, &next, minSamplesFor(0.9), time.Duration(cfg.seconds)*time.Second)
	dg := su.inst.digests()
	if err := su.inst.close(); err != nil {
		return result{}, fmt.Errorf("tearing down: %w", err)
	}
	if s.rssErr != nil {
		return result{}, s.rssErr
	}
	per := s.calibrated(cfg.workload.batch)
	p90, err := percentile(per, 0.9)
	if err != nil {
		return result{}, err
	}
	e2e := map[string]float64{
		"setup_s":          su.setupS,
		"cpu_p50_ms":       median(per),
		"cpu_p90_ms":       p90,
		"req_per_cpu_s":    float64(s.requests) / (sum(per) * float64(cfg.workload.batch) / 1000),
		"alloc_mb_per_req": s.allocB / float64(s.requests) / (1 << 20),
		"peak_rss_mb":      s.rssMiB,
		"ok_ratio":         1 - float64(s.failed)/float64(s.requests),
	}
	fmt.Fprintf(out, "timed phase: %d samples of %d request(s), %d requests, %d failed (failed_ratio %.4g), %.1fs wall\n",
		len(per), cfg.workload.batch, s.requests, s.failed, float64(s.failed)/float64(s.requests), sum(s.wallNs)/1e9)
	if s.firstErr != nil {
		fmt.Fprintln(out, "first failure:", s.firstErr)
	}
	fmt.Fprintf(out, "drift: calib.ref_ms %.4f (raw kernel CPU, median), raw.cpu_p50_ms %.4f (uncalibrated), gc_cpu %.2f%%\n",
		median(s.kernNs)/1e6, median(s.rawMs(cfg.workload.batch)), 100*s.gcCPUFrac)
	fmt.Fprintf(out, "digest: fixed %016x seeded %016x\n", dg.fixed.Sum64(), dg.seeded.Sum64())
	return report(out, e2eSchema, e2e, s.requests, s.failed)
}

// report prints every metric of schema and assembles the result line.
func report(out io.Writer, schema []metricDef, values map[string]float64, attempted, failed int) (result, error) {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, d := range schema {
		v, ok := values[d.name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(out, "  %-28s %14.6g %s\n", d.name, v, d.unit)
	}
	if attempted < 1 {
		return res, fmt.Errorf("no requests attempted")
	}
	return res, nil
}
