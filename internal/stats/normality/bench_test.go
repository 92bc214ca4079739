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

// BenchmarkVerdicts compares, on one sorted 48-thread process iteration,
// the full battery with the verdict-only one that Table 1's counters
// call: the difference is Anderson-Darling's filtered verdict.
func BenchmarkVerdicts(b *testing.B) {
	xs := benchSamples(48)
	sorted := append([]float64(nil), xs...)
	sortx.Sort(sorted)
	b.Run("BatterySorted", func(b *testing.B) {
		for b.Loop() {
			BatterySorted(xs, sorted, DefaultAlpha)
		}
	})
	b.Run("PassedSorted", func(b *testing.B) {
		for b.Loop() {
			PassedSorted(xs, sorted, DefaultAlpha)
		}
	})
}
