package sortx

// hasKernel reports whether this CPU and its OS run sort64: CPUID
// leaf 7 lists AVX-512F, and XCR0, readable because CPUID leaf 1 sets
// OSXSAVE, shows the OS saving the XMM, YMM, opmask and all 32 ZMM
// registers (bits 1, 2, 5, 6 and 7, mask 0xE6).
var hasKernel = func() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave = 1 << 27
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&0xe6 != 0xe6 {
		return false
	}
	const avx512f = 1 << 16
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx512f != 0
}()

// sort64 sorts 33 <= len(s) <= 64 floats in Go's total order, as
// sortHalves does, with the bitonic network of kernel_amd64.s over
// eight ZMM registers. It needs AVX-512F (hasKernel).
//
//go:noescape
func sort64(s []float64)

// cpuid returns the registers CPUID leaves for leaf and sub-leaf sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low and high halves of XCR0.
func xgetbv() (eax, edx uint32)
