package normality

import (
	"fmt"
	"testing"

	"earlybird/internal/cpuid"
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
				if _, err := shapiroWilkTest(xs, DefaultAlpha); err != nil {
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
				if _, err := andersonDarlingTest(xs, DefaultAlpha); err != nil {
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
	consts := constsFor(len(xs))
	for _, c := range []struct {
		name            string
		result, verdict func()
	}{
		{"DAgostino",
			func() { DAgostinoK2(xs, DefaultAlpha) },
			func() {
				m2, m3, m4, _ := fusedMoments(xs, sorted)
				v.dagPassed(xs, consts.thresholdK2(m2, m3, m4))
			}},
		{"ShapiroWilk",
			func() { ShapiroWilkSorted(sorted, DefaultAlpha) },
			func() { v.swPassed(sorted, consts, spreadOf(sorted)) }},
		{"AndersonDarling",
			func() { AndersonDarlingSorted(sorted, DefaultAlpha) },
			func() { v.adPassed(sorted, spreadOf(sorted)) }},
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

// BenchmarkADTable times the Anderson-Darling table statistic
// (adTableStatisticAbout, given each block's spread) with the table's
// sum on each path: go, the Go loop, and kernel, the AVX-512 kernel
// (only where cpuid.AVX512F). It cycles the 3,200 sorted blocks of a
// 2x8x200x48 fill per app, so no block repeats within 3,200 calls: the
// one repeated block of BenchmarkVerdicts lets the branch predictor
// learn its input.
func BenchmarkADTable(b *testing.B) {
	defer func(old bool) { useKernel = old }(useKernel)
	for _, app := range fillApps {
		blocks := appBlocks(b, app)
		sps := make([]spread, len(blocks))
		for i, xs := range blocks {
			sps[i] = spreadOf(xs)
		}
		for _, p := range []struct {
			name   string
			kernel bool
		}{{"go", false}, {"kernel", true}} {
			if p.kernel && !cpuid.AVX512F() {
				continue
			}
			b.Run(app+"/"+p.name, func(b *testing.B) {
				useKernel = p.kernel
				k := 0
				for b.Loop() {
					if _, ok := adTableStatisticAbout(blocks[k%len(blocks)], sps[k%len(blocks)]); !ok {
						b.Fatal("a real block fell outside the table")
					}
					k++
				}
			})
		}
	}
}
