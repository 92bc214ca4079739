// Package analysis implements the paper's Section 4 evaluation pipeline
// over a collected trace.Dataset: normality sweeps at the three
// aggregation levels (application, application iteration, process
// iteration), laggard detection with the median + 1 ms rule, reclaimable
// time and idle-ratio metrics, per-iteration percentile series (Figures 4,
// 6 and 8), and histogram construction (Figures 3, 5, 7 and 9).
package analysis

import (
	"encoding/json"
	"fmt"
	"strings"

	"earlybird/internal/stats/normality"
	"earlybird/internal/trace"
)

// NormalitySummary aggregates pass/fail counts of the three tests over a
// family of sample sets at one aggregation level.
type NormalitySummary struct {
	Level string
	// Total is the number of sample sets tested.
	Total int
	// Passed[t] counts sets where test t failed to reject normality.
	Passed [3]int
	// PassedSets[t] lists the indices of passing sets (iteration indices
	// at the application-iteration level), used to reproduce the paper's
	// observation that eight MiniQMC iterations pass D'Agostino only.
	PassedSets [3][]int
}

// PassRate returns Passed[t]/Total.
func (s *NormalitySummary) PassRate(t normality.Test) float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Passed[t]) / float64(s.Total)
}

// String renders the summary in Table 1's orientation.
func (s *NormalitySummary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (n=%d sets):", s.Level, s.Total)
	for _, t := range normality.Tests {
		fmt.Fprintf(&b, " %s %.1f%%", t, 100*s.PassRate(t))
	}
	return b.String()
}

// ApplicationLevelNormality runs the three tests on the full application
// aggregation (768000 samples at the paper's geometry). The paper's
// Section 4.1 finds all three tests reject for all three applications.
func ApplicationLevelNormality(d *trace.Dataset, alpha float64) [3]normality.Result {
	return normality.Battery(d.AllSamples(), alpha)
}

// ApplicationIterationNormality tests each application iteration's
// aggregated samples (3840 at the paper's geometry). The paper finds no
// passing iterations for MiniFE/MiniMD and eight MiniQMC iterations that
// pass D'Agostino while failing the other two tests.
func ApplicationIterationNormality(d *trace.Dataset, alpha float64) *NormalitySummary {
	s := &NormalitySummary{Level: "application iteration", Total: d.Iterations}
	for i := 0; i < d.Iterations; i++ {
		res := normality.Battery(d.IterationSamples(i), alpha)
		for _, t := range normality.Tests {
			if res[t].Passed() {
				s.Passed[t]++
				s.PassedSets[t] = append(s.PassedSets[t], i)
			}
		}
	}
	return s
}

// ProcessIterationNormality tests every (trial, rank, iteration) thread
// set (16000 sets of 48 at the paper's geometry) — the population of the
// paper's Table 1.
func ProcessIterationNormality(d *trace.Dataset, alpha float64) *NormalitySummary {
	return RunExactPass(d, 0, d.Iterations, PassOptions{Battery: true, Alpha: alpha}).Normality()
}

// Table1 holds one application's row of the paper's Table 1: the
// percentage of process iterations that passed each normality test.
type Table1 struct {
	App       string
	PassRates [3]float64 // indexed by normality.Test, as fractions
}

// Table1Row computes the Table 1 row for a dataset.
func Table1Row(d *trace.Dataset, alpha float64) Table1 {
	return RunExactPass(d, 0, d.Iterations, PassOptions{Battery: true, Alpha: alpha}).Table1()
}

// MarshalJSON renders the row with pass rates keyed by test slug rather
// than positionally, so service clients need not know the battery's
// index order: {"app":"minife","pass_rates":{"dagostino":0.031,...}}.
func (t Table1) MarshalJSON() ([]byte, error) {
	rates := make(map[string]float64, len(normality.Tests))
	for _, test := range normality.Tests {
		rates[test.Slug()] = t.PassRates[test]
	}
	return json.Marshal(struct {
		App       string             `json:"app"`
		PassRates map[string]float64 `json:"pass_rates"`
	}{App: t.App, PassRates: rates})
}

// UnmarshalJSON is MarshalJSON's inverse, so service clients can decode
// responses back into Table1. Unknown slugs are ignored.
func (t *Table1) UnmarshalJSON(data []byte) error {
	var wire struct {
		App       string             `json:"app"`
		PassRates map[string]float64 `json:"pass_rates"`
	}
	if err := json.Unmarshal(data, &wire); err != nil {
		return err
	}
	t.App = wire.App
	for _, test := range normality.Tests {
		t.PassRates[test] = wire.PassRates[test.Slug()]
	}
	return nil
}

// String renders the row as in the paper (percentages).
func (t Table1) String() string {
	return fmt.Sprintf("%-10s D'Agostino %5.1f%%  Shapiro-Wilk %5.1f%%  Anderson-Darling %5.1f%%",
		t.App,
		100*t.PassRates[normality.DAgostino],
		100*t.PassRates[normality.ShapiroWilk],
		100*t.PassRates[normality.AndersonDarling])
}
