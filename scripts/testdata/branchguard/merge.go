package branchguard

// Merge merges the sorted runs a and b into dst as sortx's keyed merge
// takes each key: the compare sets the index advance (SETcc) and min
// selects the key (CMOV). The loop test and the bounds checks branch
// but are control, which the guard lets pass.
func Merge(dst, a, b []int64) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		av, bv := a[i], b[j]
		c := 0
		if av <= bv {
			c = 1
		}
		dst[k] = min(av, bv)
		k++
		i += c
		j += 1 - c
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}

// BranchyMerge is Merge with the take decided by an if, which compiles
// to an integer compare and a conditional jump.
func BranchyMerge(dst, a, b []int64) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if av, bv := a[i], b[j]; av <= bv {
			dst[k] = av
			i++
		} else {
			dst[k] = bv
			j++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}
