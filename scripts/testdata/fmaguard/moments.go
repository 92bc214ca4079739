// Package fmaguard is the fixture of scripts/lint_asm_test.sh: the same
// moment loop with and without its float64() wraps. The arm64 build fuses
// the unwrapped one into FMADDDs, which scripts/lint_asm.sh fma must report.
package fmaguard

// Wrapped accumulates the second to fourth central power sums as
// stats.centralMoments does: every product rounds before the add.
func Wrapped(xs []float64, m float64) (m2, m3, m4 float64) {
	for _, x := range xs {
		d := x - m
		d2 := float64(d * d)
		m2 += d2
		m3 += float64(d2 * d)
		m4 += float64(d2 * d2)
	}
	return m2, m3, m4
}

// Unwrapped is Wrapped with its float64() wraps removed.
func Unwrapped(xs []float64, m float64) (m2, m3, m4 float64) {
	for _, x := range xs {
		d := x - m
		d2 := d * d
		m2 += d2
		m3 += d2 * d
		m4 += d2 * d2
	}
	return m2, m3, m4
}
