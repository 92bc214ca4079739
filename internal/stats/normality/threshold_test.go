package normality

import (
	"encoding/binary"
	"math"
	"testing"
	"time"

	"earlybird/internal/rng"
	"earlybird/internal/sortx"
	"earlybird/internal/stats"
)

// skewnessZ and kurtosisZ are D'Agostino's transformations as
// DAgostinoK2 evaluated them before the per-size constants, every term
// recomputed per call: the reference the constants must reproduce bit
// for bit.
func skewnessZ(g1, n float64) float64 {
	y := g1 * math.Sqrt((n+1)*(n+3)/(6*(n-2)))
	beta2 := 3 * (n*n + 27*n - 70) * (n + 1) * (n + 3) /
		((n - 2) * (n + 5) * (n + 7) * (n + 9))
	w2 := -1 + math.Sqrt(2*(beta2-1))
	delta := 1 / math.Sqrt(math.Log(math.Sqrt(w2)))
	alpha := math.Sqrt(2 / (w2 - 1))
	if y == 0 {
		return 0
	}
	return delta * math.Log(y/alpha+math.Sqrt((y/alpha)*(y/alpha)+1))
}

func kurtosisZ(b2, n float64) float64 {
	meanB2 := 3 * (n - 1) / (n + 1)
	varB2 := 24 * n * (n - 2) * (n - 3) / ((n + 1) * (n + 1) * (n + 3) * (n + 5))
	x := (b2 - meanB2) / math.Sqrt(varB2)
	sqrtBeta1 := 6 * (n*n - 5*n + 2) / ((n + 7) * (n + 9)) *
		math.Sqrt(6*(n+3)*(n+5)/(n*(n-2)*(n-3)))
	a := 6 + 8/sqrtBeta1*(2/sqrtBeta1+math.Sqrt(1+4/(sqrtBeta1*sqrtBeta1)))
	num := 1 - 2/a
	den := 1 + x*math.Sqrt(2/(a-4))
	term := math.Cbrt(num / den)
	return ((1 - 2/(9*a)) - term) / math.Sqrt(2/(9*a))
}

// refRoystonP is swPValue's n > 11 branch as it was evaluated before the
// per-size constants.
func refRoystonP(w float64, n int) float64 {
	if w >= 1 {
		return 1
	}
	g := math.Log(float64(n))
	wv := math.Log(1 - w)
	mu := -1.5861 - 0.31082*g - 0.083751*g*g + 0.0038915*g*g*g
	sigma := math.Exp(-0.4803 - 0.082676*g + 0.0030302*g*g)
	z := (wv - mu) / sigma
	return 1 - stats.NormalCDF(z)
}

// adPassedSorted is the Anderson-Darling verdict at alpha and whether it
// came from the reference.
func adPassedSorted(x []float64, alpha float64) (passed, usedFallback bool) {
	return NewVerdicts(alpha).adPassed(x)
}

// TestPerSizeConsts pins DAgostinoK2's K² and p-value, and
// Shapiro-Wilk's p-value, read through the per-size constants to the
// per-call evaluation, bit for bit, at every block size the verdicts
// take and at the paper's application-iteration size.
func TestPerSizeConsts(t *testing.T) {
	sizes := []int{3840}
	for n := 20; n <= adMaxN; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		for seed := uint64(1); seed <= 4; seed++ {
			for shape, xs := range map[string][]float64{
				"normal":  normalSample(seed, n, 26.3e-3, 0.4e-3),
				"exp":     expSample(seed, n, 1e-3),
				"laggard": append(normalSample(seed, n-1, 26e-3, 0.4e-3), 30e-3),
			} {
				got, err := DAgostinoK2(xs, DefaultAlpha)
				if err != nil {
					t.Fatal(err)
				}
				nf := float64(n)
				g1, b2 := stats.SkewnessKurtosis(xs)
				z1, z2 := skewnessZ(g1, nf), kurtosisZ(b2, nf)
				k2 := z1*z1 + z2*z2
				p := stats.ChiSquaredSF(k2, 2)
				if math.Float64bits(got.Statistic) != math.Float64bits(k2) ||
					math.Float64bits(got.PValue) != math.Float64bits(p) {
					t.Fatalf("%s n=%d seed=%d: K² %v p %v, per-call %v p %v",
						shape, n, seed, got.Statistic, got.PValue, k2, p)
				}

				sorted := append([]float64(nil), xs...)
				sortx.Sort(sorted)
				sw, err := ShapiroWilkSorted(sorted, DefaultAlpha)
				if err != nil {
					t.Fatal(err)
				}
				if want := refRoystonP(sw.Statistic, n); math.Float64bits(sw.PValue) != math.Float64bits(want) {
					t.Fatalf("%s n=%d seed=%d: Shapiro-Wilk p %v, per-call %v", shape, n, seed, sw.PValue, want)
				}
			}
		}
	}
}

// TestThresholdBounds measures what thresholdMargin rests on and fails
// if the margin is less than 1000 times it:
//
//   - the relative gap between ChiSquaredSF(x, 2) and e^(-x/2) over a
//     dense sweep of (0, k2MaxCrit+2], and that above it the survival
//     function stays below its value there, up to the largest double;
//   - how far NormalQuantile(1-p) lands from z, for Royston's
//     p = 1 - Φ(z), over a dense sweep of ±(swMaxZ+0.3), and that
//     beyond it p stays on its side of the values at the ends.
func TestThresholdBounds(t *testing.T) {
	const k2Top = k2MaxCrit + 2
	k2Gap, k2At := 0.0, 0.0
	for x := 1e-6; x <= k2Top; x += 4e-5 {
		e := math.Exp(-x / 2)
		if g := math.Abs(stats.ChiSquaredSF(x, 2)-e) / e; g > k2Gap {
			k2Gap, k2At = g, x
		}
	}
	edge := stats.ChiSquaredSF(k2Top, 2)
	for x := float64(k2Top); x <= math.MaxFloat64; x *= 1 + 1e-3 {
		if p := stats.ChiSquaredSF(x, 2); !(p <= edge) {
			t.Fatalf("ChiSquaredSF(%v, 2) = %v, above its value %v at %v", x, p, edge, k2Top)
		}
	}
	if k2Gap > thresholdMargin/1000 {
		t.Errorf("ChiSquaredSF(x, 2) is %g relative from e^(-x/2) at x = %v; the margin %g is less than 1000 times that",
			k2Gap, k2At, thresholdMargin)
	}

	const zTop = swMaxZ + 0.3
	pOf := func(z float64) float64 { return 1 - stats.NormalCDF(z) }
	zGap, zAt := 0.0, 0.0
	for z := -zTop; z <= zTop; z += 5e-6 {
		if g := math.Abs(stats.NormalQuantile(1-pOf(z)) - z); g > zGap {
			zGap, zAt = g, z
		}
	}
	lo, hi := pOf(-zTop), pOf(zTop)
	for z := zTop; z <= 40; z += 1e-4 {
		if p := pOf(z); !(p <= hi) {
			t.Fatalf("p(%v) = %v, above p(%v) = %v", z, p, zTop, hi)
		}
		if p := pOf(-z); !(p >= lo) {
			t.Fatalf("p(%v) = %v, below p(%v) = %v", -z, p, -zTop, lo)
		}
	}
	if zGap > thresholdMargin/1000 {
		t.Errorf("NormalQuantile(1-p(z)) is %g from z = %v; the margin %g is less than 1000 times that",
			zGap, zAt, thresholdMargin)
	}
	t.Logf("largest K² relative gap %g (x = %v), largest z gap %g (z = %v)", k2Gap, k2At, zGap, zAt)
}

// blendSample returns a sorted n-sample on which stat lies within tol
// of target. It blends normal quantiles, where every test's statistic
// sits on the passing side, with log-normal quantiles, far on the
// rejecting side, and bisects the blend weight: both sequences ascend,
// so every blend is sorted and the statistic moves continuously with
// the weight.
func blendSample(tb testing.TB, n int, stat func(xs []float64) float64, target, tol float64) []float64 {
	tb.Helper()
	normal, skewed := make([]float64, n), make([]float64, n)
	for i := range normal {
		normal[i] = stats.NormalQuantile((float64(i) + 0.5) / float64(n))
		skewed[i] = math.Exp(3 * normal[i])
	}
	blend := func(w float64) ([]float64, float64) {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = (1-w)*normal[i] + w*skewed[i]
		}
		return xs, stat(xs)
	}
	lo, hi := 0.0, 1.0
	if _, s := blend(lo); s >= target {
		tb.Fatalf("n=%d: the normal end already has statistic %v ≥ %v", n, s, target)
	}
	if _, s := blend(hi); s <= target {
		tb.Fatalf("n=%d: the log-normal end has statistic %v ≤ %v", n, s, target)
	}
	for iter := 0; iter < 200; iter++ {
		w := lo + (hi-lo)/2
		xs, s := blend(w)
		if math.Abs(s-target) <= tol {
			return xs
		}
		if s < target {
			lo = w
		} else {
			hi = w
		}
	}
	tb.Fatalf("n=%d: bisection did not reach a statistic within %g of %v", n, tol, target)
	return nil
}

// k2Of and royston are the statistics the threshold verdicts compare,
// as the reference computes them.
func k2Of(tb testing.TB) func([]float64) float64 {
	return func(xs []float64) float64 {
		r, err := DAgostinoK2(xs, DefaultAlpha)
		if err != nil {
			tb.Fatal(err)
		}
		return r.Statistic
	}
}

func royston(tb testing.TB) func([]float64) float64 {
	return func(x []float64) float64 {
		r, err := ShapiroWilkSorted(x, DefaultAlpha)
		if err != nil {
			tb.Fatal(err)
		}
		return swZ(r.Statistic, constsFor(len(x)))
	}
}

// TestThresholdVerdictNearCritical builds samples whose reference K²
// and Royston z sit within 1e-12 of their critical values at each of
// Stephens' tabulated levels, where the threshold cannot tell the sides
// apart: the verdict must come from the reference and agree with the
// battery's.
func TestThresholdVerdictNearCritical(t *testing.T) {
	for _, n := range []int{20, 48, 128} {
		for _, alpha := range adCriticalSig {
			v := NewVerdicts(alpha)
			for _, c := range []struct {
				test    Test
				stat    func([]float64) float64
				crit    float64
				verdict func(xs []float64) (bool, bool)
			}{
				{DAgostino, k2Of(t), v.k2Crit, func(xs []float64) (bool, bool) { return v.dagPassed(xs, xs) }},
				{ShapiroWilk, royston(t), v.zCrit, v.swPassed},
			} {
				xs := blendSample(t, n, c.stat, c.crit, 1e-12)
				passed, fallback := c.verdict(xs)
				want := BatterySorted(xs, xs, alpha)[c.test]
				if !fallback {
					t.Errorf("n=%d alpha=%v: %v statistic %v is %g from %v but the threshold decided",
						n, alpha, c.test, c.stat(xs), c.stat(xs)-c.crit, c.crit)
				}
				if passed != want.Passed() {
					t.Errorf("n=%d alpha=%v: %v passed=%v, battery %+v", n, alpha, c.test, passed, want)
				}
			}
		}
	}
}

// TestVerdictsRanges: outside the sizes and levels the bounds cover the
// reference decides, inside them the thresholds decide most blocks, and
// in both cases, non-finite samples included, every verdict equals the
// battery's.
func TestVerdictsRanges(t *testing.T) {
	src := rng.New(26)
	fast := map[Test]int{}
	for _, alpha := range []float64{1e-10, 1e-5, 0.01, DefaultAlpha, 0.5, 0.9999} {
		v := NewVerdicts(alpha)
		k2InRange, zInRange := !math.IsNaN(v.k2Crit), !math.IsNaN(v.zCrit)
		for _, n := range []int{8, 11, 12, 19, 20, 48, 128, 129, 200} {
			for name, gen := range verdictShapes {
				for rep := 0; rep < 4; rep++ {
					xs := gen(src, n)
					sorted := append([]float64(nil), xs...)
					sortx.Sort(sorted)
					want := BatterySorted(xs, sorted, alpha)
					got := v.Passed(xs, sorted)
					for _, test := range Tests {
						if got[test] != want[test].Passed() {
							t.Fatalf("%s n=%d alpha=%v: %v passed=%v, battery %+v", name, n, alpha, test, got[test], want[test])
						}
					}
					_, dagRef := v.dagPassed(xs, sorted)
					_, swRef := v.swPassed(sorted)
					if !dagRef {
						fast[DAgostino]++
					}
					if !swRef {
						fast[ShapiroWilk]++
					}
					if (!k2InRange || n < 20 || n > adMaxN) && !dagRef {
						t.Fatalf("%s n=%d alpha=%v: D'Agostino decided outside its range", name, n, alpha)
					}
					if (!zInRange || n <= 11 || n > adMaxN) && !swRef {
						t.Fatalf("%s n=%d alpha=%v: Shapiro-Wilk decided outside its range", name, n, alpha)
					}
				}
			}
		}
	}
	if fast[DAgostino] == 0 || fast[ShapiroWilk] == 0 {
		t.Errorf("the thresholds decided %v blocks; want some of each test", fast)
	}

	withAt := func(x float64) []float64 {
		xs := normalSample(3, 48, 26.3e-3, 0.4e-3)
		xs[7] = x
		return xs
	}
	// At these scales the moments underflow or overflow: K² is NaN.
	scaled := func(scale float64) []float64 {
		xs := normalSample(3, 48, 0, scale)
		xs[5] = 20 * scale
		return xs
	}
	for _, xs := range [][]float64{withAt(math.NaN()), withAt(math.Inf(1)), withAt(math.Inf(-1)),
		scaled(1e-100), scaled(1e-160), scaled(1e100), scaled(1e160)} {
		sorted := append([]float64(nil), xs...)
		sortx.Sort(sorted)
		got, want := PassedSorted(xs, sorted, DefaultAlpha), BatterySorted(xs, sorted, DefaultAlpha)
		for _, test := range Tests {
			if got[test] != want[test].Passed() {
				t.Errorf("%v: %v passed=%v, battery %+v", xs[:3], test, got[test], want[test])
			}
		}
	}
	t.Logf("decided by threshold: %v", fast)
}

// maxVerdictWall is the per-input wall bound of FuzzVerdicts: the
// verdicts are linear in the sample after one sort, so a second means
// a hang.
const maxVerdictWall = time.Second

// FuzzVerdicts decodes bytes into a sample — every word, NaN and ±Inf
// included — and asserts that each of the three verdicts equals the
// battery's at the paper's level, at whatever size the input gives.
func FuzzVerdicts(f *testing.F) {
	v := NewVerdicts(DefaultAlpha)
	f.Add(encodeSample(blendSample(f, 48, k2Of(f), v.k2Crit, 1e-12)))
	f.Add(encodeSample(blendSample(f, 48, royston(f), v.zCrit, 1e-12)))
	f.Add(encodeSample(normalSample(7, 48, 26.3e-3, 0.4e-3)))
	f.Add(encodeSample(expSample(7, 20, 1e-3)))
	f.Fuzz(func(t *testing.T, data []byte) {
		xs := decodeSample(data)
		sorted := append([]float64(nil), xs...)
		sortx.Sort(sorted)
		start := time.Now()
		got := v.Passed(xs, sorted)
		if wall := time.Since(start); wall > maxVerdictWall {
			t.Fatalf("Passed took %v on n=%d, over the %v bound", wall, len(xs), maxVerdictWall)
		}
		want := BatterySorted(xs, sorted, DefaultAlpha)
		for _, test := range Tests {
			if got[test] != want[test].Passed() {
				t.Fatalf("n=%d: %v passed=%v, battery %+v", len(xs), test, got[test], want[test])
			}
		}
	})
}

// decodeSample is encodeSample's inverse; a trailing partial word is
// dropped.
func decodeSample(data []byte) []float64 {
	xs := make([]float64, 0, len(data)/8)
	for ; len(data) >= 8; data = data[8:] {
		xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(data)))
	}
	return xs
}
