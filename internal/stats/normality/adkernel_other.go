//go:build !amd64

package normality

// adTableSumKernel is the AVX-512 kernel of amd64; the verdicts never
// call it here.
func adTableSumKernel(x []float64, mean, scale float64, table *[adTableCells + 1]float64) (sum float64, ok bool) {
	panic("normality: no adTableSumKernel on this architecture")
}
