package normality

// adTableSumKernel returns adTableSum(x, mean, scale, table) for
// 8 <= len(x) <= adMaxN with the lanes of one AVX-512F register
// (adkernel_amd64.s): the same ok, and the same terms summed in another
// order. It needs AVX-512F (cpuid.AVX512F).
//
//go:noescape
func adTableSumKernel(x []float64, mean, scale float64, table *[adTableCells + 1]float64) (sum float64, ok bool)
