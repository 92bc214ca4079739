// Package calib is the benchmark's machine-speed reference: a fixed,
// allocation-free CPU kernel plus the CPU clocks every timing is read
// from. It imports only the standard library, so no change to the
// program under test can change what one kernel run costs.
//
// A timing divided by the CPU time of a kernel run made next to it
// cancels the host's frequency and contention drift, which moves the
// kernel and the workload in step. Multiplying the ratio by NominalMs
// reports it in reference milliseconds: the time the work would take
// on a host where one kernel run costs exactly NominalMs.
package calib

import (
	"runtime"
	"slices"
	"syscall"
	"unsafe"
)

// NominalMs is the reference cost of one kernel run, in milliseconds.
// It is fixed: changing it rescales every calibrated metric.
const NominalMs = 5.0

// Kernel geometry: a 2 MiB buffer of float64s, filled from a xorshift
// stream, sorted in 48-value sets (the thread-set size the analysis
// sorts) and then summed with a data-dependent branch. Memory-, branch-
// and float-heavy in the proportions of the study pipeline.
const (
	kernelLen = 1 << 18
	setLen    = 48
)

// Kernel is one reusable calibration buffer. Run allocates nothing.
type Kernel struct {
	buf  []float64
	sink float64
}

// NewKernel allocates the kernel's buffer once.
func NewKernel() *Kernel { return &Kernel{buf: make([]float64, kernelLen)} }

// Run executes the kernel once and returns its thread CPU time in
// nanoseconds. The calling goroutine is locked to its OS thread for the
// duration, so the reading covers exactly the kernel's own work and not
// the runtime's background threads.
func (k *Kernel) Run() int64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := ThreadCPU()
	k.work()
	return ThreadCPU() - start
}

// work is the kernel body. The xorshift seed is fixed, so every run
// does identical work.
func (k *Kernel) work() {
	x := uint64(0x9e3779b97f4a7c15)
	for i := range k.buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k.buf[i] = float64(x>>11) / (1 << 53)
	}
	for lo := 0; lo+setLen <= len(k.buf); lo += setLen {
		slices.Sort(k.buf[lo : lo+setLen])
	}
	s := 0.0
	for i, v := range k.buf {
		if v > 0.5 {
			s += v * float64(i&7)
		} else {
			s -= v
		}
	}
	k.sink = s
}

// Scale converts a CPU time in nanoseconds to reference milliseconds,
// given the CPU time of an adjacent kernel run in nanoseconds.
func Scale(cpuNs, kernelNs int64) float64 {
	if kernelNs <= 0 {
		return 0
	}
	return float64(cpuNs) / float64(kernelNs) * NominalMs
}

// Linux clock ids for clock_gettime.
const (
	clockProcessCPU = 2
	clockThreadCPU  = 3
)

func clock(id uintptr) int64 {
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

// ProcessCPU returns the process's user+system CPU time in nanoseconds,
// summed over all its threads.
func ProcessCPU() int64 { return clock(clockProcessCPU) }

// ThreadCPU returns the calling OS thread's CPU time in nanoseconds.
func ThreadCPU() int64 { return clock(clockThreadCPU) }
