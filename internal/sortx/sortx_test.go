package sortx

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// TestNetworksMatchSlicesSort drives every size through the generated
// networks (padded below 32, chunked and merged up to 128) and the
// pdqsort tier with randomized and adversarial inputs, comparing against
// slices.Sort. This is the correctness proof for the generated
// comparator sequences in networks.go.
func TestNetworksMatchSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for n := 0; n <= 260; n++ {
		trials := 200
		if n > 32 {
			trials = 40
		}
		for trial := 0; trial < trials; trial++ {
			got := make([]float64, n)
			for i := range got {
				switch trial % 4 {
				case 0:
					got[i] = rng.NormFloat64()
				case 1:
					got[i] = float64(rng.IntN(4)) // heavy duplicates
				case 2:
					got[i] = float64(n - i) // reverse sorted
				default:
					got[i] = float64(i) // already sorted
				}
			}
			want := slices.Clone(got)
			slices.Sort(want)
			Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d trial=%d: Sort mismatch\n got %v\nwant %v", n, trial, got, want)
			}
		}
	}
}

func TestSortExtremes(t *testing.T) {
	in := []float64{math.Inf(1), -0, 0, math.Inf(-1), 1e-308, -1e308, 1e308}
	want := slices.Clone(in)
	slices.Sort(want)
	Sort(in)
	if !slices.Equal(in, want) {
		t.Fatalf("extremes: got %v want %v", in, want)
	}
}

// TestSortSubslice pins that Sort only touches s[:len(s)] even when the
// backing array is larger — the hot path hands it reused scratch
// prefixes.
func TestSortSubslice(t *testing.T) {
	backing := []float64{5, 4, 3, 2, 1, 99, 98}
	Sort(backing[:5])
	if !slices.Equal(backing, []float64{1, 2, 3, 4, 5, 99, 98}) {
		t.Fatalf("subslice sort touched the tail: %v", backing)
	}
}

func BenchmarkSort(b *testing.B) {
	for _, n := range []int{8, 16, 48, 128, 512} {
		src := make([]float64, n)
		rng := rand.New(rand.NewPCG(7, uint64(n)))
		for i := range src {
			src[i] = rng.NormFloat64()
		}
		buf := make([]float64, n)
		b.Run(sizeName(n), func(b *testing.B) {
			for b.Loop() {
				copy(buf, src)
				Sort(buf)
			}
		})
	}
}

// TestSortAllocFree pins that no tier up to midMax allocates: the padded
// networks' and the chunked merge's stack buffers must not escape, since
// the hot accumulators call Sort per block and rely on it being
// allocation-free.
func TestSortAllocFree(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for n := 0; n <= midMax; n++ {
		buf := make([]float64, n)
		allocs := testing.AllocsPerRun(20, func() {
			for i := range buf {
				buf[i] = rng.NormFloat64()
			}
			Sort(buf)
		})
		if allocs != 0 {
			t.Fatalf("Sort(n=%d) allocates %v times per call", n, allocs)
		}
	}
}

// TestSortBitIdentical runs the pruned comparator list of every n <= 32
// from the generator as a table-driven reference network and requires
// Sort — which sorts those sizes in a +Inf-padded 8, 16 or 32 network —
// to return the same bits, over inputs rich in -0/+0 pairs, infinities
// and duplicates. Past 32, MergeRuns merges equal values by value (it may
// emit -0 for a +0), so sizes 33..128 are held to value equality by
// TestNetworksMatchSlicesSort instead.
func TestSortBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	pool := []float64{math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 1, -1, 2.5, math.MaxFloat64, math.SmallestNonzeroFloat64}
	for n := 2; n <= networkMax; n++ {
		pairs := batcher(n)
		for trial := 0; trial < 2000; trial++ {
			in := make([]float64, n)
			for i := range in {
				if trial%2 == 0 || rng.IntN(2) == 0 {
					in[i] = pool[rng.IntN(len(pool))]
				} else {
					in[i] = rng.NormFloat64()
				}
			}
			want := slices.Clone(in)
			for _, c := range pairs {
				a, b := want[c[0]], want[c[1]]
				want[c[0]], want[c[1]] = min(a, b), max(a, b)
			}
			got := slices.Clone(in)
			Sort(got)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d input %v: Sort gives %v, the pruned network %v", n, in, got, want)
				}
			}
		}
	}
	// Past the networks, sortMid merges network-sorted chunks, and a
	// merge may meet +0 in one run and -0 in the other: the output must
	// still be a bit-pattern permutation of the input, non-decreasing.
	bitsOf := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, v := range xs {
			out[i] = math.Float64bits(v)
		}
		slices.Sort(out)
		return out
	}
	for n := networkMax + 1; n <= midMax; n++ {
		for trial := 0; trial < 200; trial++ {
			in := make([]float64, n)
			for i := range in {
				if rng.IntN(2) == 0 {
					in[i] = pool[rng.IntN(2)] // -0 or +0
				} else {
					in[i] = pool[rng.IntN(len(pool))]
				}
			}
			got := slices.Clone(in)
			Sort(got)
			if !slices.Equal(bitsOf(got), bitsOf(in)) {
				t.Fatalf("n=%d input %v: Sort gives %v, not a permutation of its input bits", n, in, got)
			}
			for i := 1; i < n; i++ {
				if got[i] < got[i-1] {
					t.Fatalf("n=%d input %v: Sort gives %v, decreasing at %d", n, in, got, i)
				}
			}
		}
	}
}

// insertion is a straight insertion sort, the reference point the
// network strategy is benchmarked against (BenchmarkSortInsertion).
func insertion(s []float64) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}

// BenchmarkSortInsertion is the reference the network tiers are
// measured against (see the package comment's crossover numbers).
func BenchmarkSortInsertion(b *testing.B) {
	for _, n := range []int{16, 32, 48, 128} {
		src := make([]float64, n)
		rng := rand.New(rand.NewPCG(7, uint64(n)))
		for i := range src {
			src[i] = rng.NormFloat64()
		}
		buf := make([]float64, n)
		b.Run(sizeName(n), func(b *testing.B) {
			for b.Loop() {
				copy(buf, src)
				insertion(buf)
			}
		})
	}
}

func sizeName(n int) string {
	const digits = "0123456789"
	if n == 0 {
		return "n0"
	}
	var out []byte
	for n > 0 {
		out = append([]byte{digits[n%10]}, out...)
		n /= 10
	}
	return "n" + string(out)
}
