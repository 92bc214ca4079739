package cpuid

// avx512f is true when CPUID leaf 7 lists AVX-512F and XCR0, readable
// because CPUID leaf 1 sets OSXSAVE, shows the OS saving the XMM, YMM,
// opmask and all 32 ZMM registers (bits 1, 2, 5, 6 and 7, mask 0xE6).
var avx512f = func() bool {
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
	const avx512fBit = 1 << 16
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx512fBit != 0
}()

// AVX512F reports whether this CPU and its OS run AVX-512F code.
func AVX512F() bool { return avx512f }

// cpuid returns the registers CPUID leaves for leaf and sub-leaf sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low and high halves of XCR0.
func xgetbv() (eax, edx uint32)
