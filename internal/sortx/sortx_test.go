package sortx

import (
	"bytes"
	"cmp"
	"encoding/binary"
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

// benchInputs is the number of distinct inputs a benchmark cycles
// through. A branch predictor learns the outcomes of one input repeated
// on every iteration, so a benchmark of one input times a data-dependent
// branch as if it never mispredicted; a few hundred inputs of fresh
// samples outlast that history.
const benchInputs = 256

// freshInputs returns benchInputs distinct slices of n standard normal
// samples.
func freshInputs(n int) [][]float64 {
	rng := rand.New(rand.NewPCG(7, uint64(n)))
	srcs := make([][]float64, benchInputs)
	for k := range srcs {
		srcs[k] = make([]float64, n)
		for i := range srcs[k] {
			srcs[k][i] = rng.NormFloat64()
		}
	}
	return srcs
}

func BenchmarkSort(b *testing.B) {
	for _, n := range []int{8, 16, 48, 128, 512} {
		srcs := freshInputs(n)
		buf := make([]float64, n)
		b.Run(sizeName(n), func(b *testing.B) {
			k := 0
			for b.Loop() {
				copy(buf, srcs[k%benchInputs])
				Sort(buf)
				k++
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

// TestSortBitIdentical holds Sort to the exact bits of a reference
// over inputs rich in -0/+0 pairs, infinities, ±MaxFloat64, subnormals
// and duplicates. For every n <= 32 the reference is the pruned
// comparator list of that n from the generator, run as a table-driven
// network of float min and max, which order -0 before +0; Sort keys the
// block and pads it to an 8, 16, 24 or 32 network. For 33 through
// midMax+8, through the merges and into the pdqsort tier, it is
// sortRef, the unique total order of the floats.
func TestSortBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	pool := []float64{math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 1, -1, 2.5,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64}
	input := func(n int, pooled bool) []float64 {
		in := make([]float64, n)
		for i := range in {
			if pooled || rng.IntN(2) == 0 {
				in[i] = pool[rng.IntN(len(pool))]
			} else {
				in[i] = rng.NormFloat64()
			}
		}
		return in
	}
	for n := 2; n <= networkMax; n++ {
		pairs := batcher(n)
		for trial := 0; trial < 2000; trial++ {
			in := input(n, trial%2 == 0)
			want := slices.Clone(in)
			for _, c := range pairs {
				a, b := want[c[0]], want[c[1]]
				want[c[0]], want[c[1]] = min(a, b), max(a, b)
			}
			got := slices.Clone(in)
			Sort(got)
			if !sameBits(got, want) {
				t.Fatalf("n=%d input %v: Sort gives %v, the pruned network %v", n, in, got, want)
			}
		}
	}
	for n := networkMax + 1; n <= midMax+8; n++ {
		for trial := 0; trial < 200; trial++ {
			in := input(n, trial%2 == 0)
			got := slices.Clone(in)
			Sort(got)
			if want := sortRef(in); !sameBits(got, want) {
				t.Fatalf("n=%d input %v: Sort gives %v, the total order %v", n, in, got, want)
			}
		}
	}
}

// sortRef returns a sorted copy of the NaN-free xs in Go's float order
// with -0 before +0: the unique order in which every tie is between
// equal bits.
func sortRef(xs []float64) []float64 {
	out := slices.Clone(xs)
	slices.SortFunc(out, func(a, b float64) int {
		if c := cmp.Compare(a, b); c != 0 {
			return c
		}
		// Only -0 and +0 compare equal with different bits.
		return cmp.Compare(signOf(b), signOf(a))
	})
	return out
}

func signOf(x float64) int {
	if math.Signbit(x) {
		return 1
	}
	return 0
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// FuzzSort sorts arbitrary float64 bit patterns, eight bytes each, at
// every size up to a few hundred, so every tier runs. NaN-free input
// must come back as sortRef's bits exactly. Input with a NaN must come
// back as a permutation of its bits: the keyed sort orders NaNs by their
// keys, where float min and max networks could duplicate a NaN over
// another value.
func FuzzSort(f *testing.F) {
	seed := func(xs ...float64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	negZero := math.Copysign(0, -1)
	f.Add(seed(3, 1, 2))
	f.Add(seed(0, negZero, 0, negZero, math.Inf(-1), math.Inf(1), 5e-324, -5e-324))
	f.Add(seed(math.NaN(), 1, math.Copysign(math.NaN(), -1), negZero, 0))
	f.Add(make([]byte, 8*60))
	f.Add(bytes.Repeat(seed(2, negZero, 1, 0), 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := make([]float64, min(len(data)/8, 2*midMax+40))
		hasNaN := false
		for i := range in {
			in[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			hasNaN = hasNaN || math.IsNaN(in[i])
		}
		got := slices.Clone(in)
		Sort(got)
		if !hasNaN {
			if want := sortRef(in); !sameBits(got, want) {
				t.Fatalf("n=%d: Sort gives %v, the total order %v", len(in), got, want)
			}
			return
		}
		if !slices.Equal(sortedBits(got), sortedBits(in)) {
			t.Fatalf("n=%d input %v: Sort gives %v, not a permutation of its bits", len(in), in, got)
		}
	})
}

// sortedBits returns the bit patterns of xs in ascending order.
func sortedBits(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, v := range xs {
		out[i] = math.Float64bits(v)
	}
	slices.Sort(out)
	return out
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
		srcs := freshInputs(n)
		buf := make([]float64, n)
		b.Run(sizeName(n), func(b *testing.B) {
			k := 0
			for b.Loop() {
				copy(buf, srcs[k%benchInputs])
				insertion(buf)
				k++
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
