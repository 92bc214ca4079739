package cpuid

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestAVX512FMatchesKernelFlags holds the detection to the CPU flags a
// Linux kernel lists in /proc/cpuinfo, which name avx512f only where the
// CPU has it and the kernel saves its state. Elsewhere it only logs the
// answer.
func TestAVX512FMatchesKernelFlags(t *testing.T) {
	t.Logf("AVX512F() = %v on %s/%s", AVX512F(), runtime.GOOS, runtime.GOARCH)
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skip("the flag check reads Linux's x86 /proc/cpuinfo")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	listed := false
	for _, line := range strings.Split(string(info), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			listed = strings.Contains(" "+flags+" ", " avx512f ")
			break
		}
	}
	if AVX512F() != listed {
		t.Errorf("AVX512F() = %v, /proc/cpuinfo lists avx512f: %v", AVX512F(), listed)
	}
}
