//go:build !amd64

package cpuid

// AVX512F is false off amd64: every kernel's Go fallback runs.
func AVX512F() bool { return false }
