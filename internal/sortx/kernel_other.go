//go:build !amd64

package sortx

// hasKernel is false off amd64: Sort takes sortHalves.
const hasKernel = false

// sort64 is the AVX-512 kernel of amd64; Sort never calls it here.
func sort64(s []float64) { panic("sortx: no sort64 kernel on this architecture") }
