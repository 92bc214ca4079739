// Package sortx provides a sorter specialized for the hot-path block
// sorts in this repo: ascending float64 slices whose length is almost
// always the thread count of a simulated rank (48 at paper geometry,
// bounded by a few hundred for any configured geometry).
//
// Strategy (single-socket Xeon, Go 1.24):
//
//   - n <= 32: unrolled Batcher odd-even merge networks for 8, 16 and 32
//     elements (networks.go) with branchless min/max compare-exchanges;
//     bounds checks are eliminated by the (*[N]float64) conversion. Any
//     other n is copied into a 32-element stack buffer, padded with +Inf
//     up to the next of 8, 16 and 32, sorted there, and its first n
//     elements copied back.
//   - 33 <= n <= 128: network-sorted 32-wide chunks merged bottom-up
//     through a fixed stack buffer (sortMid). At n=48 (the paper's
//     thread count) this is a single branchless merge pass over a
//     network32 and a network16 run.
//   - n > 128: slices.Sort (pdqsort). Block sizes past 128 do not occur
//     in configured geometries.
//
// networks.go is generated: TestNetworksGenerated renders it from the
// comparator lists of batcher (networks_gen_test.go) and fails when the
// checked-in file differs; -update rewrites it.
//
// Padding does not change a bit of the result. Go's min and max order
// every non-NaN float64 totally, -0 before +0, and a compare-exchange
// only permutes its two values, so every correct network returns the
// same unique sorted sequence. The +Inf pads sort to the tail, and a
// +Inf in the data is bitwise equal to a pad, so the first n outputs
// are exactly the sorted input. TestSortBitIdentical checks this against
// the pruned networks for every n <= 32.
//
// Only three widths are unrolled because the sorts that are not 8, 16 or
// 32 wide are rare: a study's 48-thread blocks run network32 and
// network16 inside sortMid, and other widths come from Select's short
// tails. A table-driven loop over the comparator list was measured and
// rejected: ~15% slower at n=48 on fresh data (median of 5 runs 1012 vs
// 883 ns on a 2-core VM), and computing the pair indices inside the loop
// nest was 3.2x slower (2822 ns). The padded widths are dispatched by a
// switch with direct calls; calling through a func table makes the
// stack buffer escape to the heap (TestSortAllocFree catches it).
//
// Every tier was chosen by the END-TO-END study benchmark, not a
// package microbenchmark, because a microbenchmark that re-sorts one
// input every iteration lies here: the branch predictor memorizes every
// data-dependent comparison and branchy code looks ~2x faster than it
// runs on fresh data (BenchmarkSort and BenchmarkSelect therefore cycle
// through 256 fresh inputs; branchy comparators: 44 ns at
// n16 in the microbenchmark vs a ~20% REGRESSION of the full streaming
// study; same story for insertion sort, whose inner loop is all
// data-dependent branches). Branchless min/max comparators pay a few
// extra instructions (Go's float64 builtins handle NaN/-0) but their
// cost is the same on fresh data as in the loop, and the streaming
// study dropped ~10% when they replaced insertion at n=48.
//
// Contract: elements must not be NaN. Compute-time samples in this repo
// are finite by construction (the workload models draw from bounded
// transforms of finite uniforms); with NaNs present the result order is
// unspecified, exactly as for sort.Float64s before Go 1.23.
package sortx

import (
	"math"
	"slices"
)

// networkMax is the largest n with an unrolled network; sortMid chunks
// by this width.
const networkMax = 32

// midMax is the largest n routed to the chunked network merge; above it
// pdqsort wins. See the package comment for the measured crossover.
const midMax = 128

// Sort sorts s ascending in place. It is a drop-in replacement for
// sort.Float64s / slices.Sort on NaN-free data, specialized for the
// small block sizes of the per-rank scratch buffers.
func Sort(s []float64) {
	n := len(s)
	switch {
	case n <= 1:
		return
	case n <= networkMax:
		sortSmall(s)
	case n <= midMax:
		sortMid(s)
	default:
		slices.Sort(s)
	}
}

// sortSmall sorts 2 <= n <= 32 elements with one network: directly at
// n = 8, 16 or 32, otherwise in a stack buffer padded with +Inf to the
// next of those widths (see the package comment for why the result is
// bit-exact).
func sortSmall(s []float64) {
	switch len(s) {
	case 8:
		network8(s)
		return
	case 16:
		network16(s)
		return
	case 32:
		network32(s)
		return
	}
	var buf [networkMax]float64
	n := copy(buf[:], s)
	w := 8
	for w < n {
		w *= 2
	}
	for i := n; i < w; i++ {
		buf[i] = math.Inf(1)
	}
	switch w {
	case 8:
		network8(buf[:])
	case 16:
		network16(buf[:])
	default:
		network32(buf[:])
	}
	copy(s, buf[:n])
}

// sortMid sorts 33 <= n <= 128 elements: each 32-wide chunk (and the
// shorter tail chunk) is sorted by sortSmall, then the sorted runs are
// merged bottom-up through a stack buffer. The buffer never escapes —
// MergeRuns does not retain its arguments — so the whole sort stays
// allocation-free.
func sortMid(s []float64) {
	n := len(s)
	for i := 0; i < n; i += networkMax {
		if end := min(i+networkMax, n); end-i > 1 {
			sortSmall(s[i:end])
		}
	}
	var buf [midMax]float64
	src, dst := s, buf[:n]
	for width := networkMax; width < n; width *= 2 {
		for i := 0; i < n; i += 2 * width {
			mid := i + width
			if mid >= n {
				// Lone tail run: already sorted, carry it over.
				copy(dst[i:n], src[i:n])
				break
			}
			end := i + 2*width
			if end > n {
				end = n
			}
			MergeRuns(dst[i:end], src[i:mid], src[mid:end])
		}
		src, dst = dst, src
	}
	if &src[0] != &s[0] {
		copy(s, src)
	}
}

// MergeRuns merges the sorted runs a and b into dst, which must have
// length len(a)+len(b) and not alias either run. The take direction is
// selected without a data-dependent branch (SETcc for the index
// advance, a bit-mask select for the value): the direction is a coin
// flip on real data, and a mispredict costs more than the select. The
// value written is the one consumed, so dst is a permutation of the
// runs' bits; min(av, bv) is not, as it writes -0 twice when a +0 in a
// meets a -0 in b. On a 32+16 merge of fresh normal samples (2-core
// Xeon VM) the mask select takes ~247 ns, min ~226 ns, and an if/else
// select, which compiles to a branch, ~400 ns.
// Sort's merge passes run on it.
func MergeRuns(dst, a, b []float64) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		av, bv := a[i], b[j]
		c := 0
		if av <= bv {
			c = 1
		}
		m := uint64(c) - 1 // 0 takes av, all ones takes bv
		dst[k] = math.Float64frombits(math.Float64bits(av)&^m | math.Float64bits(bv)&m)
		k++
		i += c
		j += 1 - c
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}
