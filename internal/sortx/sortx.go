// Package sortx provides a sorter specialized for the hot-path block
// sorts in this repo: ascending float64 slices whose length is almost
// always the thread count of a simulated rank (48 at paper geometry,
// bounded by a few hundred for any configured geometry), and Select,
// which places single order statistics and sorts its short tails with
// Sort.
//
// Sort does not compare floats; it sorts integer keys. A float64 with
// bits b has the key k = int64(b) ^ (int64(b)>>63 & math.MaxInt64): a
// negative float has every bit but its sign flipped, any other keeps
// its bits. The map is a bijection and its own inverse (key), and the
// signed order of the keys is Go's total order of floats: -Inf, the
// negative floats, -0, +0, the positive floats, +Inf, subnormals in
// their places. Sort keys the block once into a stack buffer, sorts the
// keys, and writes the floats back once, so NaN-free input comes back as
// the unique sequence of that order, -0 before +0, bit for bit.
//
// Why keys: a compare-exchange of floats, p[i], p[j] = min(..), max(..),
// must put -0 below +0 and pass a NaN through, as Go's float min and
// max do, and on amd64 it compiled to about 13 instructions: two MINSD
// and a POR for the min, PXOR sign flips around two more MINSD for the
// max, and a store of each element. An int64 min and max compile to
// CMPQ, CMOVQLT and CMOVQGT, with no branch and no sign fix-up.
//
// Strategy (Go 1.24):
//
//   - n <= 32: one Batcher odd-even merge network (networks.go) of width
//     8, 16, 24 or 32, whichever is the narrowest that holds n, with the
//     slots past n set to math.MaxInt64, which sorts after every key.
//     A network loads its keys into locals, so the compiler keeps as
//     many in registers as it has, and stores them back once.
//   - 33 <= n <= 64 on amd64 with AVX-512F: sort64 (kernel_amd64.s),
//     the 64-slot bitonic network in eight ZMM registers. It loads s
//     merge-masked over math.MaxInt64 pads (their bits are their own
//     key, so they sort last), keys the bits with VPSRAQ, VPANDQ and
//     VPXORQ, runs the 6 register-pairing stages as VPMINSQ/VPMAXSQ
//     pairs and the 15 lane-pairing stages as one VPERMQ and a
//     merge-masked VPMINSQ and VPMAXSQ each, maps the keys back and
//     stores n elements masked. Sort takes it when useKernel, which is
//     cpuid.AVX512F, the one AVX-512 detection this package shares with
//     normality's table sum: CPUID leaf 7 lists AVX-512F and XCR0 shows
//     the OS saving the opmask and ZMM state. There is no flag: every named
//     geometry runs 48 threads, so there is one kernel and no 16- or
//     32-slot one.
//   - 33 <= n <= 64 elsewhere (other amd64 hosts, arm64): two runs of
//     ceil(n/2) keys, one network each, merged from both ends at once
//     (sortHalves, mergeRuns). At the paper's n = 48 that is two
//     24-wide networks and a 24-step merge. It is also the kernel's
//     test oracle: TestKernelMatchesSortHalves holds the two to the same
//     bits at every n, NaN payloads included.
//   - 65 <= n <= 128: four runs of ceil(n/4) keys, merged in pairs and
//     then together. At n = 128 this took 2.1 µs and pdqsort on the
//     same keys 7.9 µs.
//   - 129 <= n <= 256 (-geometry 1x1x20x256, say): two halves of
//     ceil(n/2) keys, each sorted as the four-run tier does, joined by
//     one more merge. BenchmarkSort, medians of five interleaved runs
//     against pdqsort on the keys (2-core x86-64 VM): n = 192 3.5 µs
//     against 10.9 µs, n = 256 5.3 µs against 15.9 µs.
//   - n > 256: slices.Sort (pdqsort) on the keys, written over s in
//     place.
//
// networks.go and kernel_amd64.s are generated: TestNetworksGenerated
// renders the first from the comparator lists of batcher
// (networks_gen_test.go), TestKernelGenerated the second from the stage
// list of bitonicStages (kernel_gen_test.go), and each fails when the
// checked-in file differs; -update rewrites both. TestSortBitIdentical
// holds every n <= 32 to the bits of that n's pruned float network, and
// every larger n to the total order, on both paths of 33 <= n <= 64
// (the tests flip useKernel; a host without AVX-512F skips the kernel
// subtests and logs it).
//
// BenchmarkSort/n48 on fresh normal samples (2-core x86-64 VM with
// AVX-512F, three runs each): the kernel 180-189 ns, the networks and
// merge 446-524 ns. End to end, see DESIGN.md, "Sorting on integer
// keys".
//
// The chunking was chosen by the END-TO-END study, not by a package
// microbenchmark. study-cold cpu_p50_ms (perfbench, 20 s runs, six
// rounds interleaving the three builds, medians): the float networks
// 6.23 ms; keys as a 32-wide and a 16-wide network joined by a 48-step
// one-ended merge 6.08 ms; keys as two 24-wide networks and the
// two-ended merge 5.91 ms. A 48-wide network (384 compare-exchanges, no
// merge) and four 12-key runs padded to 16 were both slower than two
// 24-key runs at n = 48 in BenchmarkSort. On fresh normal samples
// BenchmarkSort/n48 took 924 ns with the float networks and 464 ns with
// the keys (medians of five interleaved runs, 2-core x86-64 VM), and
// the sort's share of a BenchmarkStudyAnalyze profile fell from 30.5%
// to 23.3%.
//
// A microbenchmark that re-sorts one input every iteration lies here:
// the branch predictor memorizes every data-dependent comparison and
// branchy code looks ~2x faster than it runs on fresh data, so
// BenchmarkSort and BenchmarkSelect cycle through 256 fresh inputs
// (branchy comparators were 44 ns at n16 in the microbenchmark and a
// ~20% regression of the full streaming study). Every compare of the
// networks, the merge and Select's partition feeds a SETcc or a CMOV,
// and make
// lint-branchless fails the build listing that puts a conditional jump
// on a compare line of the networks, mergeRuns or partitionBelow.
// Calling a network through a func table made the stack buffer escape
// to the heap (TestSortAllocFree catches it), so widths are dispatched
// by a switch.
//
// Contract: any input, and no allocation (TestSortAllocFree checks
// every n <= 256). NaN-free input comes back in the total order above.
// A NaN sorts by its key too (one with the sign bit set before -Inf,
// one without after +Inf), so input with NaNs comes back as a
// permutation of its bits; a float min and max network could copy a NaN
// over another value. Compute-time samples in this repo are finite by
// construction, and trace input refuses NaN.
package sortx

import (
	"math"
	"slices"
	"unsafe"

	"earlybird/internal/cpuid"
)

// networkMax is the widest network and the width of each run's slot in
// the merge tiers' key buffers.
const networkMax = 32

// quarterMax is the largest n sorted as four network runs.
const quarterMax = 4 * networkMax

// midMax is the largest n sorted by networks and merges; larger blocks
// take pdqsort.
const midMax = 2 * quarterMax

// useKernel selects sort64, the AVX-512 kernel, for 33 <= n <= 64; it
// is cpuid.AVX512F, and tests flip it to run the networks on any host.
var useKernel = cpuid.AVX512F()

// key maps the bits of a float64 to an int64 whose signed order is Go's
// total order of floats, and maps such a key back to the bits: it flips
// every bit but the sign of a negative value and is its own inverse.
func key(b int64) int64 {
	return b ^ (b >> 63 & math.MaxInt64)
}

// Sort sorts s ascending in place in Go's total order of floats, -0
// before +0 (see the package comment). On NaN-free data it is a drop-in
// replacement for sort.Float64s / slices.Sort, specialized for the
// small block sizes of the per-rank scratch buffers.
func Sort(s []float64) {
	n := len(s)
	switch {
	case n <= 1:
		return
	case n <= networkMax:
		var keys [networkMax]int64
		sortRun(keys[:n], s)
		fromKeys(s, keys[:n])
	case n <= 2*networkMax:
		if useKernel {
			sort64(s)
		} else {
			sortHalves(s)
		}
	case n <= quarterMax:
		sortQuarters(s)
	case n <= midMax:
		sortHalvesOfQuarters(s)
	default:
		// The keys are written over s through an int64 view of the
		// same memory, so the large tier allocates nothing either.
		keys := unsafe.Slice((*int64)(unsafe.Pointer(&s[0])), n)
		for i, b := range keys {
			keys[i] = key(b)
		}
		slices.Sort(keys)
		for i, k := range keys {
			keys[i] = key(k)
		}
	}
}

// fromKeys writes the float of each keys[i] to s[i].
func fromKeys(s []float64, keys []int64) {
	for i, k := range keys {
		s[i] = math.Float64frombits(uint64(key(k)))
	}
}

// sortRun keys s into run[:len(s)] and sorts run, len(s) <= len(run) <=
// 32, with one network: the narrowest of 8, 16, 24 and 32 that holds
// run. Every slot past s up to that width is set to math.MaxInt64 first,
// so run's own pads sort to its end, and run's capacity must reach the
// width.
func sortRun(run []int64, s []float64) {
	for i, x := range s {
		run[i] = key(int64(math.Float64bits(x)))
	}
	w := (len(run) + 7) &^ 7
	run = run[:w]
	for i := len(s); i < w; i++ {
		run[i] = math.MaxInt64
	}
	switch w {
	case 8:
		network8((*[8]int64)(run))
	case 16:
		network16((*[16]int64)(run))
	case 24:
		network24((*[24]int64)(run))
	default:
		network32((*[32]int64)(run))
	}
}

// sortHalves sorts 33 <= n <= 64 elements as two runs of h = ceil(n/2)
// keys, each in its own 32-wide slot of a stack buffer and sorted by one
// network (24 wide at the paper's n = 48); the second run is topped up
// with one math.MaxInt64 when n is odd. mergeRuns merges the equal runs,
// and the pad, which sorts after every key, is dropped: a key equal to a
// pad has a pad's bits. The buffers are sized to this tier because Go
// zeroes them on every call.
func sortHalves(s []float64) {
	n := len(s)
	var keys, buf [2 * networkMax]int64
	h := (n + 1) / 2
	a, b := keys[:h], keys[networkMax:networkMax+h]
	sortRun(a, s[:h])
	sortRun(b, s[h:])
	mergeRuns(buf[:2*h], a, b)
	fromKeys(s, buf[:n])
}

// sortQuarters sorts 65 <= n <= 128 elements as sortHalves does, in four
// runs of q = ceil(n/4) keys merged pairwise and then together.
func sortQuarters(s []float64) {
	var keys [quarterMax]int64
	quarterKeys(&keys, s, len(s))
	fromKeys(s, keys[:len(s)])
}

// quarterKeys sorts the keys of s into keys[:m], len(s) <= m, 65 <= m
// <= 128, as four runs of q = ceil(m/4) keys merged pairwise and then
// together; keys[len(s):m] come out as math.MaxInt64 pads.
func quarterKeys(keys *[quarterMax]int64, s []float64, m int) {
	n := len(s)
	var buf [quarterMax]int64
	q := (m + 3) / 4
	var runs [4][]int64
	for r := range runs {
		runs[r] = keys[r*networkMax : r*networkMax+q]
		sortRun(runs[r], s[min(r*q, n):min((r+1)*q, n)])
	}
	mergeRuns(buf[:2*q], runs[0], runs[1])
	mergeRuns(buf[2*q:4*q], runs[2], runs[3])
	mergeRuns(keys[:4*q], buf[:2*q], buf[2*q:4*q])
}

// sortHalvesOfQuarters sorts 129 <= n <= 256 elements as two halves of
// h = ceil(n/2) keys, each sorted by quarterKeys (the second topped up
// with one pad when n is odd) and joined by mergeRuns.
func sortHalvesOfQuarters(s []float64) {
	n := len(s)
	h := (n + 1) / 2
	var a, b [quarterMax]int64
	var keys [midMax]int64
	quarterKeys(&a, s[:h], h)
	quarterKeys(&b, s[h:], h)
	mergeRuns(keys[:2*h], a[:h], b[:h])
	fromKeys(s, keys[:n])
}

// mergeRuns merges the sorted key runs a and b, of equal length m, into
// dst, which must have length 2m and not alias either run. It runs the
// merge from both ends at once: step t takes the smaller head (a's on a
// tie) into dst[t] and the larger tail (b's on a tie) into dst[2m-1-t],
// so the two ends are independent dependency chains. Before step t
// each end has taken t < m keys, so no index can leave its run, and the
// front's takes are a prefix and the back's a suffix of one stable
// merge, so the m steps take every key once. The take direction is a
// coin flip on real data, so it is selected without a data-dependent
// branch: each compare sets a flag (SETcc) that advances one index, and
// the key written is min or max, a CMOV.
func mergeRuns(dst, a, b []int64) {
	i, j := 0, 0
	ia, jb := len(a)-1, len(b)-1
	for lo, hi := 0, len(dst)-1; lo < hi; lo, hi = lo+1, hi-1 {
		av, bv := a[i], b[j]
		c := 0
		if av <= bv {
			c = 1
		}
		dst[lo] = min(av, bv)
		i += c
		j += 1 - c
		at, bt := a[ia], b[jb]
		d := 0
		if at > bt {
			d = 1
		}
		dst[hi] = max(at, bt)
		ia -= d
		jb -= 1 - d
	}
}
