package normality

import (
	"fmt"
	"testing"

	"earlybird/internal/sortx"
)

// The three sample sizes of the paper's aggregation levels: process
// iteration (48), application iteration (3840), application (768000 is
// too slow for a default bench sweep; 76800 preserves the scaling
// picture).
var benchSizes = []int{48, 3840, 76800}

func benchSamples(n int) []float64 {
	return normalSample(42, n, 26.3e-3, 0.18e-3)
}

func BenchmarkDAgostino(b *testing.B) {
	for _, n := range benchSizes {
		xs := benchSamples(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := DAgostinoK2(xs, DefaultAlpha); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkShapiroWilk(b *testing.B) {
	for _, n := range benchSizes {
		xs := benchSamples(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ShapiroWilkTest(xs, DefaultAlpha); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAndersonDarling(b *testing.B) {
	for _, n := range benchSizes {
		xs := benchSamples(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := AndersonDarlingTest(xs, DefaultAlpha); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkJarqueBera(b *testing.B) {
	for _, n := range benchSizes {
		xs := benchSamples(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := JarqueBeraTest(xs, DefaultAlpha); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBattery measures a full Table 1 cell: all three tests on one
// 48-thread process iteration.
func BenchmarkBattery(b *testing.B) {
	xs := benchSamples(48)
	for i := 0; i < b.N; i++ {
		Battery(xs, DefaultAlpha)
	}
}

// BenchmarkVerdicts measures, on one sorted 48-thread process
// iteration, each test's verdict as the Result entry point reaches it
// (statistic, p-value, Passed) and as Table 1's counters reach it
// through Verdicts, then the whole battery both ways.
func BenchmarkVerdicts(b *testing.B) {
	xs := benchSamples(48)
	sorted := append([]float64(nil), xs...)
	sortx.Sort(sorted)
	v := NewVerdicts(DefaultAlpha)
	for _, c := range []struct {
		name            string
		result, verdict func()
	}{
		{"DAgostino",
			func() { DAgostinoK2(xs, DefaultAlpha) },
			func() { v.dagPassed(xs, sorted) }},
		{"ShapiroWilk",
			func() { ShapiroWilkSorted(sorted, DefaultAlpha) },
			func() { v.swPassed(sorted) }},
		{"AndersonDarling",
			func() { AndersonDarlingSorted(sorted, DefaultAlpha) },
			func() { v.adPassed(sorted) }},
		{"Battery",
			func() { BatterySorted(xs, sorted, DefaultAlpha) },
			func() { v.Passed(xs, sorted) }},
	} {
		b.Run(c.name+"/Result", func(b *testing.B) {
			for b.Loop() {
				c.result()
			}
		})
		b.Run(c.name+"/Verdict", func(b *testing.B) {
			for b.Loop() {
				c.verdict()
			}
		})
	}
}
