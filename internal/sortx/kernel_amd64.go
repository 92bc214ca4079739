package sortx

// sort64 sorts 33 <= len(s) <= 64 floats in Go's total order, as
// sortHalves does, with the bitonic network of kernel_amd64.s over
// eight ZMM registers. It needs AVX-512F (cpuid.AVX512F).
//
//go:noescape
func sort64(s []float64)
