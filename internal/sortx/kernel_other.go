//go:build !amd64

package sortx

// sort64 is the AVX-512 kernel of amd64; Sort never calls it here.
func sort64(s []float64) { panic("sortx: no sort64 kernel on this architecture") }
