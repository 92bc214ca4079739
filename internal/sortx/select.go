package sortx

import "math/bits"

// selectSortMax is the range length at which Select stops partitioning
// and sorts what is left: the networks and the chunked merge finish a
// range this short faster than further partition passes narrow it.
const selectSortMax = 32

// Select reorders s so that s[k] holds the value a full ascending Sort
// would place at index k, every element of s[:k] is <= s[k] and every
// element of s[k+1:] is >= s[k]. Callers that read a few order
// statistics (a quartile and its interpolation neighbour) place just
// those instead of sorting the whole slice.
//
// It is quickselect with a median-of-three pivot and branchless
// partition passes; a pivot that is its range's minimum splits off the
// run equal to it, so inputs full of duplicates still narrow; k == 0 is
// a single minimum scan. Expected cost is linear. A depth limit of 2·log2(len(s))
// partition steps bounds the worst case: past it Select sorts the
// remaining range with Sort, so no input — a median-of-three killer
// included — makes it quadratic. k must be in [0, len(s)); Sort's NaN
// contract applies.
func Select(s []float64, k int) {
	if k < 0 || k >= len(s) {
		panic("sortx: Select rank out of range")
	}
	selectLimit(s, k, 2*bits.Len(uint(len(s))))
}

// selectLimit is Select with an explicit budget of partition steps. It
// reports whether the budget ran out, so that the rest of the range was
// sorted instead.
func selectLimit(s []float64, k, budget int) (sortedRest bool) {
	if k == 0 {
		m := 0
		for i, x := range s {
			if x < s[m] {
				m = i
			}
		}
		s[0], s[m] = s[m], s[0]
		return false
	}
	lo, hi := 0, len(s)
	for hi-lo > selectSortMax {
		if budget == 0 {
			Sort(s[lo:hi])
			return true
		}
		budget--
		var done bool
		if lo, hi, done = narrow(s, lo, hi, k); done {
			return false
		}
	}
	Sort(s[lo:hi])
	return false
}

// narrow runs one partition step on s[lo:hi], which holds rank k. The
// pivot v is the median of the first, middle and last elements. One
// pass moves the elements below v to the front, and the side holding k
// is the new range. Only when nothing is below v — v is the range's
// minimum, as with heavy duplicates — does a second pass split off the
// run equal to v, so that every step makes progress. It returns the
// subrange that still holds rank k, or done when s[k] is already in
// place (k fell in that run).
func narrow(s []float64, lo, hi, k int) (nlo, nhi int, done bool) {
	a, b, c := s[lo], s[lo+(hi-lo)/2], s[hi-1]
	v := max(min(a, b), min(max(a, b), c))
	lt := partitionBelow(s[lo:hi], v, false) + lo
	switch {
	case k < lt:
		return lo, lt, false
	case lt > lo:
		return lt, hi, false
	}
	le := partitionBelow(s[lo:hi], v, true) + lo
	if k < le {
		return 0, 0, true
	}
	return le, hi, false
}

// partitionBelow moves every element below v (at or below v when
// orEqual) to the front of s, keeping no order, and returns how many
// there are. The swap is unconditional and only the write index
// advances on the comparison, so the loop has no data-dependent branch.
func partitionBelow(s []float64, v float64, orEqual bool) int {
	j := 0
	if orEqual {
		for i, x := range s {
			s[i], s[j] = s[j], x
			if x <= v {
				j++
			}
		}
		return j
	}
	for i, x := range s {
		s[i], s[j] = s[j], x
		if x < v {
			j++
		}
	}
	return j
}
