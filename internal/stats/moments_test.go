package stats

import (
	"math"
	"math/rand"
	"testing"
)

// refCentralMoment is the k-th central moment in its original
// math.Pow form: one pass per moment, one Pow call per sample.
func refCentralMoment(xs []float64, k int) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		sum += math.Pow(x-m, float64(k))
	}
	return sum / float64(len(xs))
}

func refSkewness(xs []float64) float64 {
	m2 := refCentralMoment(xs, 2)
	m3 := refCentralMoment(xs, 3)
	return m3 / math.Pow(m2, 1.5)
}

func refKurtosis(xs []float64) float64 {
	m2 := refCentralMoment(xs, 2)
	m4 := refCentralMoment(xs, 4)
	return m4 / (m2 * m2)
}

// TestOnePassMomentsMatchPow: the one-pass products must reproduce the
// math.Pow moments bit for bit — on normal, skewed and heavy-tailed
// samples of several sizes, at scales from 1e-9 to 1e3 and offsets that
// make the centring subtraction lose digits.
func TestOnePassMomentsMatchPow(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	draws := map[string]func() float64{
		"normal": rng.NormFloat64,
		"exp":    rng.ExpFloat64,
		"cauchy": func() float64 { return math.Tan(math.Pi * (rng.Float64() - 0.5)) },
	}
	for _, scale := range []float64{1e-9, 1e-6, 1e-3, 1, 1e3} {
		for name, draw := range draws {
			for _, n := range []int{1, 2, 3, 20, 48, 500} {
				for _, offset := range []float64{0, 25 * scale} {
					xs := make([]float64, n)
					for i := range xs {
						xs[i] = offset + scale*draw()
					}
					g1, b2 := SkewnessKurtosis(xs)
					for _, c := range []struct {
						what      string
						got, want float64
					}{
						{"Skewness", Skewness(xs), refSkewness(xs)},
						{"Kurtosis", Kurtosis(xs), refKurtosis(xs)},
						{"SkewnessKurtosis g1", g1, refSkewness(xs)},
						{"SkewnessKurtosis b2", b2, refKurtosis(xs)},
					} {
						if math.Float64bits(c.got) != math.Float64bits(c.want) {
							t.Errorf("%s scale %g n %d offset %g: %s = %v, Pow form %v",
								name, scale, n, offset, c.what, c.got, c.want)
						}
					}
				}
			}
		}
	}
	if g1, b2 := SkewnessKurtosis(nil); !math.IsNaN(g1) || !math.IsNaN(b2) {
		t.Errorf("empty sample: skewness %v, kurtosis %v, want NaN", g1, b2)
	}
}
