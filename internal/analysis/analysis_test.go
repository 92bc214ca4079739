package analysis

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"earlybird/internal/stats/normality"
	"earlybird/internal/trace"
)

// synthetic builds a tiny dataset with hand-set values.
func synthetic() *trace.Dataset {
	d := trace.NewDataset("syn", 1, 2, 3, 4)
	v := 10.0
	d.EachProcessIteration(func(trial, rank, iter int, xs []float64) {
		for i := range xs {
			xs[i] = v * 1e-3
			v += 0.25
		}
	})
	return d
}

func TestReclaimableTime(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	// max=4: (4-1)+(4-2)+(4-3)+(4-4) = 6.
	if got := ReclaimableTime(xs); got != 6 {
		t.Fatalf("reclaimable = %v, want 6", got)
	}
}

func TestReclaimableTimeAllEqual(t *testing.T) {
	if got := ReclaimableTime([]float64{5, 5, 5}); got != 0 {
		t.Fatalf("reclaimable = %v, want 0", got)
	}
}

func TestIdleRatio(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	want := 6.0 / (4 * 4)
	if got := IdleRatio(xs); math.Abs(got-want) > 1e-12 {
		t.Fatalf("idle ratio = %v, want %v", got, want)
	}
	if got := IdleRatio([]float64{0, 0}); got != 0 {
		t.Fatalf("idle ratio of zeros = %v", got)
	}
}

func TestIdleRatioBoundsProperty(t *testing.T) {
	// For positive samples the ratio is always in [0, 1).
	cases := [][]float64{
		{1}, {1, 1}, {0.001, 100}, {3, 2, 1}, {5, 5, 5, 0.1},
	}
	for _, xs := range cases {
		r := IdleRatio(xs)
		if r < 0 || r >= 1 {
			t.Errorf("idle ratio of %v = %v outside [0,1)", xs, r)
		}
	}
}

func TestHasLaggard(t *testing.T) {
	base := []float64{0.0247, 0.0247, 0.0248, 0.0247}
	if HasLaggard(base, 1e-3) {
		t.Error("tight set flagged as laggard")
	}
	withLag := append(append([]float64{}, base...), 0.0290)
	if !HasLaggard(withLag, 1e-3) {
		t.Error("4.3ms laggard not detected")
	}
	// Exactly at threshold: not a laggard (strictly greater).
	exact := []float64{1, 1, 1, 1 + 1e-3}
	if HasLaggard(exact, 1e-3) {
		t.Error("threshold should be exclusive")
	}
}

func TestLaggardsCounting(t *testing.T) {
	d := trace.NewDataset("lag", 1, 1, 4, 8)
	d.EachProcessIteration(func(trial, rank, iter int, xs []float64) {
		for i := range xs {
			xs[i] = 0.020
		}
		if iter%2 == 0 {
			xs[0] = 0.020 + 3e-3 // laggard in even iterations
		}
	})
	st := Laggards(d, DefaultLaggardThresholdSec)
	if st.Total != 4 || st.WithLaggard != 2 || st.Fraction != 0.5 {
		t.Fatalf("laggard stats %+v", st)
	}
	if math.Abs(st.MeanMagnitudeSec-3e-3) > 1e-9 {
		t.Fatalf("magnitude = %v", st.MeanMagnitudeSec)
	}
	// Range restriction.
	st13 := LaggardsInRange(d, DefaultLaggardThresholdSec, 1, 3)
	if st13.Total != 2 || st13.WithLaggard != 1 {
		t.Fatalf("ranged laggard stats %+v", st13)
	}
}

func TestFindExampleIterations(t *testing.T) {
	d := trace.NewDataset("ex", 1, 1, 2, 4)
	for i := range d.Times[0][0][0] {
		d.Times[0][0][0][i] = 0.02
	}
	for i := range d.Times[0][0][1] {
		d.Times[0][0][1][i] = 0.02
	}
	d.Times[0][0][1][3] = 0.025
	withLag, without := FindExampleIterations(d, 1e-3, 0, 2)
	if without == nil || without[2] != 0 {
		t.Fatalf("no-laggard example = %v", without)
	}
	if withLag == nil || withLag[2] != 1 {
		t.Fatalf("laggard example = %v", withLag)
	}
	// Restricting to [0,1) finds no laggard example.
	withLag, _ = FindExampleIterations(d, 1e-3, 0, 1)
	if withLag != nil {
		t.Fatalf("unexpected laggard example %v", withLag)
	}
}

func TestComputeMetricsOnSynthetic(t *testing.T) {
	d := synthetic()
	m := ComputeMetrics(d, DefaultLaggardThresholdSec)
	if m.App != "syn" {
		t.Errorf("app = %q", m.App)
	}
	if m.MeanMedianSec <= 0 || m.AvgReclaimableProcSec <= 0 {
		t.Errorf("metrics not positive: %+v", m)
	}
	if m.IdleRatioProc <= 0 || m.IdleRatioProc >= 1 {
		t.Errorf("idle ratio out of range: %v", m.IdleRatioProc)
	}
	if m.IQRMaxSec < m.IQRMeanSec {
		t.Errorf("IQR max %v < mean %v", m.IQRMaxSec, m.IQRMeanSec)
	}
	if s := m.String(); !strings.Contains(s, "syn") || !strings.Contains(s, "idle ratio") {
		t.Errorf("render = %q", s)
	}
}

func TestComputeMetricsEmptyRange(t *testing.T) {
	d := synthetic()
	m := ComputeMetricsInRange(d, 1e-3, 2, 2)
	if m.MeanMedianSec != 0 || m.AvgReclaimableProcSec != 0 {
		t.Errorf("empty range should produce zero metrics: %+v", m)
	}
}

func TestIterationPercentilesAndColumns(t *testing.T) {
	d := synthetic()
	ps := IterationPercentiles(d, []float64{5, 25, 50, 75, 95})
	if len(ps.Values) != d.Iterations {
		t.Fatalf("rows = %d", len(ps.Values))
	}
	for i, row := range ps.Values {
		if len(row) != len(ps.Percentiles) {
			t.Fatalf("iteration %d has %d percentiles, want %d", i, len(row), len(ps.Percentiles))
		}
	}
	// Percentiles are monotone within a row.
	for i, row := range ps.Values {
		for k := 1; k < len(row); k++ {
			if row[k] < row[k-1] {
				t.Fatalf("iteration %d: percentiles not monotone: %v", i, row)
			}
		}
	}
}

func TestIQRStatsAndRangeClamping(t *testing.T) {
	d := synthetic()
	ps := IterationPercentiles(d, nil)
	mean, max := ps.IQRStats(0, d.Iterations)
	if mean <= 0 || max < mean {
		t.Fatalf("iqr stats mean=%v max=%v", mean, max)
	}
	// Out-of-range bounds clamp instead of panicking.
	m2, _ := ps.IQRStats(-5, 100)
	if m2 != mean {
		t.Fatalf("clamped mean %v != %v", m2, mean)
	}
	// Missing percentiles yield zeros.
	ps2 := IterationPercentiles(d, []float64{50})
	if m, x := ps2.IQRStats(0, 1); m != 0 || x != 0 {
		t.Fatal("IQRStats without quartiles should be zero")
	}
}

func TestPercentileSeriesCSV(t *testing.T) {
	d := synthetic()
	ps := IterationPercentiles(d, []float64{25, 50, 75})
	csv := ps.CSV(1e-3)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if lines[0] != "iteration,p25,p50,p75" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) != d.Iterations+1 {
		t.Fatalf("lines = %d", len(lines))
	}
}

func TestApplicationHistogramBins(t *testing.T) {
	d := synthetic()
	h := ApplicationHistogram(d, Fig3BinWidthSec)
	if h.Total != d.NumSamples() {
		t.Fatalf("histogram total %d != %d", h.Total, d.NumSamples())
	}
	if h.Width != 10e-6 {
		t.Fatalf("bin width = %v", h.Width)
	}
}

func TestProcessIterationHistogram(t *testing.T) {
	d := synthetic()
	h := ProcessIterationHistogram(d, 0, 1, 2, Fig9BinWidthSec)
	if h.Total != d.Threads {
		t.Fatalf("total = %d", h.Total)
	}
}

func TestNormalitySummaryAndTable1OnDegenerate(t *testing.T) {
	// All-constant dataset: every process iteration must be counted as
	// rejected (degenerate), giving a 0% pass rate.
	d := trace.NewDataset("const", 1, 1, 3, 48)
	d.EachProcessIteration(func(_, _, _ int, xs []float64) {
		for i := range xs {
			xs[i] = 0.02
		}
	})
	s := ProcessIterationNormality(d, normality.DefaultAlpha)
	for _, test := range normality.Tests {
		if s.PassRate(test) != 0 {
			t.Errorf("%v: pass rate %v on constant data", test, s.PassRate(test))
		}
	}
	t1 := Table1Row(d, normality.DefaultAlpha)
	if t1.App != "const" {
		t.Errorf("table1 app = %q", t1.App)
	}
	if !strings.Contains(t1.String(), "const") {
		t.Errorf("table1 render = %q", t1.String())
	}
	if !strings.Contains(s.String(), "process iteration") {
		t.Errorf("summary render = %q", s.String())
	}
}

func TestNormalitySummaryPassedSets(t *testing.T) {
	// One clearly-normal iteration embedded among constant ones; the
	// passed set should contain only that iteration's index.
	d := trace.NewDataset("mix", 1, 1, 3, 64)
	for i := range d.Times[0][0][1] {
		// Deterministic near-normal values via the inverse CDF trick.
		d.Times[0][0][1][i] = 0.02 + 1e-3*float64(i%8) - 3.5e-3 // uniform-ish, will often pass AD? keep loose
	}
	for _, iter := range []int{0, 2} {
		for i := range d.Times[0][0][iter] {
			d.Times[0][0][iter][i] = 0.02
		}
	}
	s := ProcessIterationNormality(d, normality.DefaultAlpha)
	for _, test := range normality.Tests {
		for _, idx := range s.PassedSets[test] {
			if idx != 1 {
				t.Errorf("%v: unexpected passing set %d", test, idx)
			}
		}
	}
}

func TestNormalitySummaryEmptyTotal(t *testing.T) {
	s := &NormalitySummary{}
	if s.PassRate(normality.DAgostino) != 0 {
		t.Fatal("empty summary pass rate should be 0")
	}
}

func TestTable1JSONRoundTrip(t *testing.T) {
	orig := Table1{App: "minife", PassRates: [3]float64{0.046, 0.002, 0.009}}
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	// Wire format keys rates by test slug, not position.
	for _, want := range []string{`"app":"minife"`, `"dagostino":0.046`, `"shapiro_wilk":0.002`, `"anderson_darling":0.009`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("marshalled %s missing %s", data, want)
		}
	}
	var back Table1
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != orig {
		t.Errorf("round trip: got %+v, want %+v", back, orig)
	}
}
