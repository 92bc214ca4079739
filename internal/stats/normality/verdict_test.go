package normality

import (
	"encoding/binary"
	"math"
	"testing"

	"earlybird/internal/rng"
	"earlybird/internal/sortx"
)

// verdictShapes generate one block of n samples each: the null case and
// three departures from it that the Anderson-Darling test should reject
// at different rates.
var verdictShapes = map[string]func(s *rng.Source, n int) []float64{
	"normal": func(s *rng.Source, n int) []float64 {
		xs := make([]float64, n)
		s.FillNormal(xs, 26.3e-3, 0.4e-3)
		return xs
	},
	"exponential": func(s *rng.Source, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = s.Exp(1e-3)
		}
		return xs
	},
	"uniform": func(s *rng.Source, n int) []float64 {
		xs := make([]float64, n)
		s.FillUniform(xs, 25e-3, 27e-3)
		return xs
	},
	"mixture": func(s *rng.Source, n int) []float64 {
		// A normal block with a few laggards: mildly right-skewed, so the
		// statistic lands on both sides of the critical values.
		xs := make([]float64, n)
		s.FillNormalStragglers(xs, 26e-3, 0, 0.4e-3, 0.05, 1e-3)
		return xs
	},
}

// TestPassedSortedMatchesBattery pins the verdict-only battery to the
// full one over random blocks of every shape at sizes 8..200, so both
// the fast Anderson-Darling form (n ≤ adMaxN) and its heap-sized
// fallback (n > adMaxN) are covered, at the paper's 5% level and at
// Stephens' other tabulated levels.
func TestPassedSortedMatchesBattery(t *testing.T) {
	src := rng.New(18)
	alphas := append([]float64{DefaultAlpha}, adCriticalSig...)
	blocks, fast, maxGap := 0, 0, 0.0
	for name, gen := range verdictShapes {
		for n := 8; n <= 200; n++ {
			reps := 12
			if n > 64 {
				reps = 3
			}
			for rep := 0; rep < reps; rep++ {
				xs := gen(src, n)
				sorted := append([]float64(nil), xs...)
				sortx.Sort(sorted)
				alpha := alphas[blocks%len(alphas)]
				blocks++
				want := BatterySorted(xs, sorted, alpha)
				got := PassedSorted(xs, sorted, alpha)
				for _, test := range Tests {
					if got[test] != want[test].Passed() {
						t.Fatalf("%s n=%d alpha=%v: %v passed=%v, battery %+v",
							name, n, alpha, test, got[test], want[test])
					}
				}
				_, fallback := adPassedSorted(sorted, alpha)
				if n > adMaxN && !fallback {
					t.Fatalf("%s n=%d: a sample above adMaxN took the fast path", name, n)
				}
				if !fallback {
					fast++
				}
				if a2, ok := adFastStatistic(sorted); ok {
					maxGap = math.Max(maxGap, math.Abs(a2-want[AndersonDarling].Statistic))
				}
			}
		}
	}
	// The margin must dwarf what the two forms actually disagree by.
	if maxGap > adMargin/1000 {
		t.Errorf("fast and reference A²* differ by up to %g; the margin %g is less than 1000 times that",
			maxGap, adMargin)
	}
	t.Logf("%d blocks, %d decided by the fast form, largest A²* gap %g", blocks, fast, maxGap)
}

// TestPassedSortedDegenerate: samples Anderson-Darling cannot test count
// as rejected, through the fallback, and the other verdicts still match
// the battery's.
func TestPassedSortedDegenerate(t *testing.T) {
	constant := make([]float64, 48)
	for i := range constant {
		constant[i] = 0.025
	}
	for _, xs := range [][]float64{nil, {1, 2}, {1, 2, 3, 4, 5, 6, 7}, constant} {
		sorted := append([]float64(nil), xs...)
		sortx.Sort(sorted)
		got, want := PassedSorted(xs, sorted, DefaultAlpha), BatterySorted(xs, sorted, DefaultAlpha)
		for _, test := range Tests {
			if got[test] != want[test].Passed() {
				t.Errorf("n=%d: %v passed=%v, battery %+v", len(xs), test, got[test], want[test])
			}
		}
		if passed, fallback := adPassedSorted(sorted, DefaultAlpha); passed || !fallback {
			t.Errorf("n=%d: Anderson-Darling passed=%v fallback=%v, want a rejection from the reference",
				len(xs), passed, fallback)
		}
	}
}

// nearCriticalSample returns a sorted n-sample whose reference A²* lies
// within tol of crit (see blendSample).
func nearCriticalSample(tb testing.TB, n int, crit, tol float64) []float64 {
	tb.Helper()
	return blendSample(tb, n, func(xs []float64) float64 {
		r, err := AndersonDarlingSorted(xs, DefaultAlpha)
		if err != nil {
			tb.Fatal(err)
		}
		return r.Statistic
	}, crit, tol)
}

// TestADVerdictNearCritical builds samples whose reference A²* sits
// within 1e-12 of each of Stephens' critical values, where the fast form
// cannot tell the sides apart: the verdict must come from the reference
// and agree with it.
func TestADVerdictNearCritical(t *testing.T) {
	for _, n := range []int{8, 48, 128} {
		for i, sig := range adCriticalSig {
			crit := adCriticalVal[i]
			xs := nearCriticalSample(t, n, crit, 1e-12)
			ref, err := AndersonDarlingSorted(xs, sig)
			if err != nil {
				t.Fatal(err)
			}
			passed, fallback := adPassedSorted(xs, sig)
			if !fallback {
				t.Errorf("n=%d alpha=%v: A²* %v is %g from %v but the fast form decided",
					n, sig, ref.Statistic, ref.Statistic-crit, crit)
			}
			if passed != ref.Passed() {
				t.Errorf("n=%d alpha=%v: passed=%v, reference %v", n, sig, passed, ref.Passed())
			}
		}
	}
}

// TestErfcPairMatchesErfc pins erfcPair to the library's Erfc bit for
// bit on both signs: dense sweeps around every branch boundary of the
// FreeBSD algorithm, a log-spaced sweep over the whole range, and the
// special values.
func TestErfcPairMatchesErfc(t *testing.T) {
	check := func(x float64) {
		for _, x := range []float64{x, -x} {
			pos, neg := erfcPair(x)
			if math.Float64bits(pos) != math.Float64bits(math.Erfc(x)) ||
				math.Float64bits(neg) != math.Float64bits(math.Erfc(-x)) {
				t.Fatalf("erfcPair(%v) = (%v, %v), Erfc gives (%v, %v)",
					x, pos, neg, math.Erfc(x), math.Erfc(-x))
			}
		}
	}
	for _, x := range []float64{0, math.Copysign(0, -1), math.Inf(1), math.NaN(),
		math.SmallestNonzeroFloat64, math.MaxFloat64} {
		check(x)
	}
	for _, edge := range []float64{0x1p-56, 0.25, 0.84375, 1.25, 1 / 0.35, 6, 28} {
		// Every double within 2000 ulps of the boundary, then a coarser
		// sweep of ±1% around it.
		x := edge
		for i := 0; i < 2000; i++ {
			x = math.Nextafter(x, 0)
		}
		for i := 0; i < 4001; i++ {
			check(x)
			x = math.Nextafter(x, math.Inf(1))
		}
		for i := -5000; i <= 5000; i++ {
			check(edge * (1 + float64(i)*2e-6))
		}
	}
	for x := 1e-20; x < 40; x *= 1 + 1e-4 {
		check(x)
	}
}

// encodeSample is the fuzz corpus encoding of a sample: eight
// little-endian bytes per float64.
func encodeSample(xs []float64) []byte {
	b := make([]byte, 0, 8*len(xs))
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// FuzzADVerdict decodes bytes into a finite sample (NaN and ±Inf words
// are skipped) and asserts that the filtered verdict equals the
// reference's at the paper's level, at whatever size the input gives.
func FuzzADVerdict(f *testing.F) {
	f.Add(encodeSample(nearCriticalSample(f, 48, criticalValueFor(DefaultAlpha), 1e-12)))
	f.Add(encodeSample(normalSample(7, 48, 26.3e-3, 0.4e-3)))
	f.Add(encodeSample(expSample(7, 130, 1e-3)))
	f.Fuzz(func(t *testing.T, data []byte) {
		xs := make([]float64, 0, len(data)/8)
		for ; len(data) >= 8; data = data[8:] {
			x := math.Float64frombits(binary.LittleEndian.Uint64(data))
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		sortx.Sort(xs)
		passed, _ := adPassedSorted(xs, DefaultAlpha)
		if want := adReferencePassed(xs, DefaultAlpha); passed != want {
			a2, ok := adFastStatistic(xs)
			ref, err := AndersonDarlingSorted(xs, DefaultAlpha)
			t.Fatalf("n=%d: passed=%v, reference %v (fast A²* %v ok=%v, reference %+v err %v)",
				len(xs), passed, want, a2, ok, ref, err)
		}
	})
}
