package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"earlybird/perfbench/calib"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 0.9); err == nil {
		t.Fatal("p90 over 99 samples was accepted; it has only 9 beyond it")
	}
	xs = append(xs, 100)
	p90, err := percentile(xs, 0.9)
	if err != nil {
		t.Fatalf("p90 over 100 samples: %v", err)
	}
	if p90 != 90 {
		t.Fatalf("p90 of 1..100 = %v, want the nearest-rank 90", p90)
	}
	if got := minSamplesFor(0.9); got != 100 {
		t.Fatalf("minSamplesFor(0.9) = %d, want 100", got)
	}
	if got := minSamplesFor(0.5); got != 20 {
		t.Fatalf("minSamplesFor(0.5) = %d, want 20", got)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("percentile of no samples was accepted")
	}
}

func TestMedianAndWindow(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median even = %v", m)
	}
	got := windowMedians([]float64{10, 10, 50, 10, 10}, 1)
	want := []float64{10, 10, 10, 10, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("windowMedians = %v, want %v (one outlier must not move its neighbours)", got, want)
		}
	}
}

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	sp := func(id, parent int, lo, hi int64) span {
		return span{name: "s", req: 1, id: id, parent: parent, cpu0: lo, cpu1: hi, wall0: lo, wall1: hi}
	}
	spans := []span{
		sp(1, 0, 0, 100),   // root
		sp(2, 1, 10, 40),   // child
		sp(3, 1, 30, 60),   // overlaps child 2
		sp(4, 2, 15, 20),   // grandchild: only reduces its parent
		sp(5, 1, 90, 120),  // reaches past the root's end
		sp(6, 1, 20, 25),   // inside child 2's stretch: covered once
		sp(7, 3, 50, 80),   // grandchild reaching past its parent
		sp(8, 0, 200, 210), // another root, no children
	}
	for _, cpu := range []bool{true, false} {
		self := selfTimes(spans, cpu)
		want := map[int]int64{
			1: 100 - 50 - 10, // [10,60) and [90,100) covered
			2: 30 - 5,
			3: 30 - 10, // [50,60) of the grandchild is inside
			4: 5,
			5: 30,
			6: 5,
			7: 30,
			8: 10,
		}
		for id, w := range want {
			if self[id] != w {
				t.Errorf("cpu=%v: self(%d) = %d, want %d", cpu, id, self[id], w)
			}
		}
	}
}

func TestLedgerTilesTheRoot(t *testing.T) {
	spans := []span{
		{name: rootName, req: 1, id: 1, cpu0: 0, cpu1: 100},
		{name: "serve.http", req: 1, id: 2, parent: 1, cpu0: 5, cpu1: 95},
		{name: "serve.handler", req: 1, id: 3, parent: 2, cpu0: 10, cpu1: 90},
		{name: "core.table1", req: 1, id: 4, parent: 3, cpu0: 20, cpu1: 80, bytes: 7},
	}
	l := buildLedger(spans)
	if l.requests != 1 || l.rootCPU != 100 {
		t.Fatalf("ledger requests %d root %v", l.requests, l.rootCPU)
	}
	total := 0.0
	for _, name := range l.layers() {
		total += l.self[name]
	}
	if total != l.rootCPU {
		t.Fatalf("self times sum to %v, root is %v", total, l.rootCPU)
	}
	v := ledgerValues(l, 1)
	if v["trace.unexplained_pct"] != 10 || v["trace.layers_ms"] != 90 || v["core.table1_ms"] != 60 {
		t.Fatalf("ledger values %v", v)
	}
	if names := l.layers(); names[0] != "core.table1" || names[len(names)-1] != rootName {
		t.Fatalf("layers order %v", names)
	}
}

func TestCalibrationScaling(t *testing.T) {
	if got := calib.Scale(20e6, 10e6); got != 2*calib.NominalMs {
		t.Fatalf("Scale(20ms, 10ms kernel) = %v, want %v", got, 2*calib.NominalMs)
	}
	if got := calib.Scale(5, 0); got != 0 {
		t.Fatalf("Scale with no kernel time = %v", got)
	}
	// A host running everything 30% slower reads the same: the kernel
	// slows in step.
	s := samples{cpuNs: []float64{40e6, 52e6}, kernNs: []float64{10e6, 13e6}}
	got := s.calibrated(4)
	// Window medians over two kernel runs average them: 11.5 ms.
	want := []float64{40 / 11.5 * calib.NominalMs / 4, 52 / 11.5 * calib.NominalMs / 4}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("calibrated = %v, want %v", got, want)
		}
	}
	s = samples{cpuNs: []float64{40e6, 40e6, 52e6, 52e6, 52e6}, kernNs: []float64{10e6, 10e6, 13e6, 13e6, 13e6}}
	got = s.calibrated(1)
	if math.Abs(got[0]-got[4]) > 1e-9 {
		t.Fatalf("drift is not cancelled: %v", got)
	}
}

// benchmarkJSON is the part of BENCHMARK.json the schema test reads.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestSchemaMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("bad or repeated metric name %q", name)
		}
		seen[name] = true
		if !unitRE.MatchString(unit) {
			t.Errorf("bad unit %q of %s", unit, name)
		}
	}
	if len(b.EndToEnd) != len(e2eSchema) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark prints %d", len(b.EndToEnd), len(e2eSchema))
	}
	maxBound := 0.0
	for i, m := range b.EndToEnd {
		check(m.Name, m.Unit)
		if m.Name != e2eSchema[i].name || m.Unit != e2eSchema[i].unit {
			t.Errorf("end-to-end %d: BENCHMARK.json %s/%s, printed %s/%s", i, m.Name, m.Unit, e2eSchema[i].name, e2eSchema[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v better %q", m.Name, m.Bound, m.Better)
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" && (m.Bound != maxBound || m.Unit != "s" || m.Better != "lower") {
			t.Errorf("setup_s must be in s, lower-is-better, with the largest bound")
		}
	}
	if len(b.PerLayer) != len(layerSchema) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark prints %d", len(b.PerLayer), len(layerSchema))
	}
	for i, m := range b.PerLayer {
		check(m.Name, m.Unit)
		if m.Name != layerSchema[i].name || m.Unit != layerSchema[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s/%s, printed %s/%s", i, m.Name, m.Unit, layerSchema[i].name, layerSchema[i].unit)
		}
	}
	for name := range spanMetrics {
		if !seen[name] {
			t.Errorf("span metric %s is not in the schema", name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q / why %q", i, w.Name, w.Why)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
}

func TestReportPrintsExactlyTheSchema(t *testing.T) {
	values := map[string]float64{}
	for i, d := range e2eSchema {
		values[d.name] = float64(i) + 0.5
	}
	var out bytes.Buffer
	res, err := report(&out, e2eSchema, values, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]json.RawMessage
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := back[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(back) != 4 || len(res.Metrics) != len(e2eSchema) || !res.Correct {
		t.Fatalf("result line %s", line)
	}
	delete(values, "setup_s")
	if _, err := report(&out, e2eSchema, values, 10, 0); err == nil {
		t.Fatal("a missing metric was not reported")
	}
	values["setup_s"] = 1
	if _, err := report(&out, e2eSchema, values, 0, 0); err == nil {
		t.Fatal("a run with no requests was not refused")
	}
}
