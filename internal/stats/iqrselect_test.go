package stats

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// TestIQRSelectBitIdentical pins IQRSelect to the sort-based IQR it
// replaces on the exact path: the same bits as IQRSorted over a sorted
// copy, for every length 0–64 and application-iteration sizes up to
// 3840, over shapes that stress the rank arithmetic (duplicates, sorted
// and reversed runs) and the interpolation's overflow fallback (values
// near ±MaxFloat64).
func TestIQRSelectBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	shapes := map[string]func() float64{
		"arrivals":   func() float64 { return 0.026 + 0.002*rng.NormFloat64() + 0.004*rng.ExpFloat64() },
		"duplicates": func() float64 { return float64(rng.IntN(3)) * 1e-3 },
		"huge":       func() float64 { return math.MaxFloat64 * (2*rng.Float64() - 1) },
		"mixed-sign": func() float64 { return rng.NormFloat64() },
	}
	sizes := []int{768, 769, 770, 771, 1536, 3840}
	for n := 0; n <= 64; n++ {
		sizes = append(sizes, n)
	}
	for name, draw := range shapes {
		for _, n := range sizes {
			for order := 0; order < 3; order++ {
				xs := make([]float64, n)
				for i := range xs {
					xs[i] = draw()
				}
				switch order {
				case 1:
					slices.Sort(xs)
				case 2:
					slices.Sort(xs)
					slices.Reverse(xs)
				}
				want := IQRSorted(Sorted(xs))
				got := IQRSelect(slices.Clone(xs))
				if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Fatalf("%s n=%d order=%d: IQRSelect = %v (%#x), IQRSorted = %v (%#x)",
						name, n, order, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}
