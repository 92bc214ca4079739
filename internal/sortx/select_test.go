package sortx

import (
	"math/bits"
	"math/rand/v2"
	"slices"
	"testing"
)

// selectShapes are the input families the selection property test runs:
// each fills s in place from a seeded generator.
var selectShapes = map[string]func(s []float64, rng *rand.Rand){
	"random": func(s []float64, rng *rand.Rand) {
		for i := range s {
			s[i] = rng.NormFloat64()
		}
	},
	"sorted": func(s []float64, _ *rand.Rand) {
		for i := range s {
			s[i] = float64(i)
		}
	},
	"reversed": func(s []float64, _ *rand.Rand) {
		for i := range s {
			s[i] = float64(len(s) - i)
		}
	},
	"all-equal": func(s []float64, _ *rand.Rand) {
		for i := range s {
			s[i] = 42
		}
	},
	"duplicates": func(s []float64, rng *rand.Rand) {
		for i := range s {
			s[i] = float64(rng.IntN(5))
		}
	},
	"organ-pipe": func(s []float64, _ *rand.Rand) {
		for i := range s {
			s[i] = float64(min(i, len(s)-1-i))
		}
	},
	"median-of-3-killer": func(s []float64, _ *rand.Rand) { copy(s, medianOf3Killer(len(s), len(s)-1)) },
}

// checkSelected fails unless got, after Select(got, k), holds the
// sorted value at k with no smaller element after it and no larger one
// before it, and, at the first, middle and last rank, that got is a
// permutation of want (the fully sorted input).
func checkSelected(t *testing.T, name string, got, want []float64, k int) {
	t.Helper()
	if got[k] != want[k] {
		t.Fatalf("%s n=%d k=%d: s[k] = %v, sorted[k] = %v", name, len(got), k, got[k], want[k])
	}
	for i, x := range got {
		if (i < k && x > got[k]) || (i > k && x < got[k]) {
			t.Fatalf("%s n=%d k=%d: s[%d] = %v on the wrong side of s[k] = %v", name, len(got), k, i, x, got[k])
		}
	}
	if k == 0 || k == len(got)/2 || k == len(got)-1 {
		perm := slices.Clone(got)
		slices.Sort(perm)
		if !slices.Equal(perm, want) {
			t.Fatalf("%s n=%d k=%d: Select lost or invented elements", name, len(got), k)
		}
	}
}

// TestSelectMatchesSort compares Select against a full Sort for every
// rank k of every length 0–128 and of a spread of longer ones up to
// 2000, over random, sorted, reversed, all-equal, heavy-duplicate,
// organ-pipe and median-of-three-killer inputs.
func TestSelectMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	lengths := []int{200, 256, 511, 768, 2000}
	for n := 0; n <= 128; n++ {
		lengths = append(lengths, n)
	}
	for name, fill := range selectShapes {
		for _, n := range lengths {
			src := make([]float64, n)
			fill(src, rng)
			want := slices.Clone(src)
			Sort(want)
			got := make([]float64, n)
			for k := 0; k < n; k++ {
				copy(got, src)
				Select(got, k)
				checkSelected(t, name, got, want, k)
			}
		}
	}
}

// medianOf3Killer builds an input on which every partition step of
// selectLimit for rank k peels only the two or three smallest elements
// off the range. It plays the adversary against the real narrow: every
// element starts as "gas", a value above anything assigned, tagged with
// its original index; before each step the adversary freezes the three
// pivot candidates with the smallest unused values, so the pivot is the
// second smallest element of the range. narrow only ever compares an
// element with the frozen pivot, and a gas value compares above it, so
// the run is the one selectLimit makes on the returned input.
func medianOf3Killer(n, k int) []float64 {
	const gas = 1e9
	s := make([]float64, n)
	for i := range s {
		s[i] = gas + float64(i)
	}
	orig := slices.Clone(s)
	next := 1.0
	lo, hi := 0, n
	for hi-lo > selectSortMax {
		for _, i := range [3]int{lo, lo + (hi-lo)/2, hi - 1} {
			if s[i] >= gas {
				orig[int(s[i]-gas)] = next
				s[i] = next
				next++
			}
		}
		var done bool
		if lo, hi, done = narrow(s, lo, hi, k); done {
			break
		}
	}
	return orig
}

// TestSelectDepthLimitFallsBack pins that the depth limit fires on the
// median-of-three killer — the input that makes plain quickselect
// quadratic — and that the sorted remainder still answers correctly.
func TestSelectDepthLimitFallsBack(t *testing.T) {
	for _, n := range []int{200, 768, 2000} {
		k := n - 1
		s := medianOf3Killer(n, k)
		want := slices.Clone(s)
		Sort(want)
		if !selectLimit(s, k, 2*bits.Len(uint(n))) {
			t.Fatalf("n=%d: the depth limit did not fire on the median-of-3 killer", n)
		}
		checkSelected(t, "killer", s, want, k)
	}
	// Random input of the same size narrows within the budget.
	rng := rand.New(rand.NewPCG(9, 9))
	s := make([]float64, 2000)
	selectShapes["random"](s, rng)
	if selectLimit(s, len(s)/2, 2*bits.Len(uint(len(s)))) {
		t.Fatal("the depth limit fired on random input")
	}
}

// TestSelectRankOutOfRangePanics pins the documented contract.
func TestSelectRankOutOfRangePanics(t *testing.T) {
	for _, k := range []int{-1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Select(len 3, %d) did not panic", k)
				}
			}()
			Select([]float64{1, 2, 3}, k)
		}()
	}
}

// FuzzSelect checks Select against Sort on arbitrary byte-derived inputs
// (one sample per byte keeps duplicates common) at every rank.
func FuzzSelect(f *testing.F) {
	f.Add([]byte{3, 1, 2})
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice: the quick brown fox"))
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 4096 {
			raw = raw[:4096]
		}
		src := make([]float64, len(raw))
		for i, b := range raw {
			src[i] = float64(int8(b))
		}
		want := slices.Clone(src)
		Sort(want)
		got := make([]float64, len(src))
		for k := range src {
			copy(got, src)
			Select(got, k)
			checkSelected(t, "fuzz", got, want, k)
		}
	})
}

func BenchmarkSelect(b *testing.B) {
	for _, n := range []int{48, 768, 3840} {
		src := make([]float64, n)
		rng := rand.New(rand.NewPCG(7, uint64(n)))
		for i := range src {
			src[i] = rng.NormFloat64()
		}
		buf := make([]float64, n)
		b.Run(sizeName(n)+"/select-quartiles", func(b *testing.B) {
			for b.Loop() {
				copy(buf, src)
				lo, hi := n/4, 3*n/4
				Select(buf, lo)
				Select(buf[lo+1:], 0)
				Select(buf[lo+2:], hi-lo-2)
				Select(buf[hi+1:], 0)
			}
		})
		b.Run(sizeName(n)+"/sort", func(b *testing.B) {
			for b.Loop() {
				copy(buf, src)
				Sort(buf)
			}
		})
	}
}
