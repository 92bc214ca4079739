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
// the Anderson-Darling table (n ≤ adMaxN) and the reference it falls
// back to (n > adMaxN) are covered, at the paper's 5% level and at
// Stephens' other tabulated levels; the table's A²* must stay within
// its margin of the reference's.
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
					t.Fatalf("%s n=%d: a sample above adMaxN was decided by the table", name, n)
				}
				if !fallback {
					fast++
				}
				if a2, ok := adTableStatistic(sorted); ok {
					gap, margin := math.Abs(a2-want[AndersonDarling].Statistic), adTableMargin(n)
					if !(gap < margin) {
						t.Fatalf("%s n=%d: table A²* %v is %g from the reference %v, over the margin %g",
							name, n, a2, gap, want[AndersonDarling].Statistic, margin)
					}
					maxGap = math.Max(maxGap, gap/margin)
				}
			}
		}
	}
	t.Logf("%d blocks, %d decided by the table, largest A²* gap %.3f of the margin", blocks, fast, maxGap)
}

// TestADTableBound checks what adTableMargin rests on. At every cell's
// midpoint, where linear interpolation strays farthest from g, the
// table must read within h²/8 of logNormalCDF, and every second
// difference must lie in [-h², 0], as -g″ is in (0, 1), both up to
// rounding. Then over 400k random blocks, 25k of each shape at n = 8,
// 20, 48 and adMaxN, the table's A²* must stay within the margin of
// the reference's.
func TestADTableBound(t *testing.T) {
	const (
		h     = 1.0 / adTableSteps
		round = 1e-12
	)
	g := lnPhiTable()
	worst := 0.0
	for k := 0; k < adTableCells; k++ {
		mid := -adTableZ + (float64(k)+0.5)/adTableSteps
		d := math.Abs((g[k]+g[k+1])/2 - logNormalCDF(mid))
		if d > h*h/8+round {
			t.Fatalf("cell %d: midpoint %v reads %g from logNormalCDF, over h²/8 = %g", k, mid, d, h*h/8)
		}
		worst = math.Max(worst, d)
		if k > 0 {
			if d2 := g[k-1] - 2*g[k] + g[k+1]; d2 > round || d2 < -h*h-round {
				t.Fatalf("cell %d: second difference %g outside [-h², 0]", k, d2)
			}
		}
	}
	t.Logf("largest midpoint error %g, h²/8 = %g", worst, h*h/8)

	src := rng.New(29)
	for _, n := range []int{8, 20, 48, adMaxN} {
		margin := adTableMargin(n)
		maxGap, near := 0.0, 0
		for _, name := range []string{"normal", "exponential", "uniform", "mixture"} {
			for rep := 0; rep < 25000; rep++ {
				xs := verdictShapes[name](src, n)
				sortx.Sort(xs)
				a2, ok := adTableStatistic(xs)
				ref, err := AndersonDarlingSorted(xs, DefaultAlpha)
				if !ok || err != nil {
					t.Fatalf("%s n=%d: table ok=%v, reference error %v", name, n, ok, err)
				}
				gap := math.Abs(a2 - ref.Statistic)
				if !(gap < margin) {
					t.Fatalf("%s n=%d: table A²* %v is %g from the reference %v, over the margin %g",
						name, n, a2, gap, ref.Statistic, margin)
				}
				maxGap = math.Max(maxGap, gap)
				if math.Abs(a2-criticalValueFor(DefaultAlpha)) <= margin {
					near++
				}
			}
		}
		t.Logf("n=%d: largest A²* gap %g, margin %g; %d of 100000 blocks within it at 5%%", n, maxGap, margin, near)
	}
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
// within 1e-12 of each of Stephens' critical values, where the table
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
				t.Errorf("n=%d alpha=%v: A²* %v is %g from %v but the table decided",
					n, sig, ref.Statistic, ref.Statistic-crit, crit)
			}
			if passed != ref.Passed() {
				t.Errorf("n=%d alpha=%v: passed=%v, reference %v", n, sig, passed, ref.Passed())
			}
		}
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
			a2, ok := adTableStatistic(xs)
			ref, err := AndersonDarlingSorted(xs, DefaultAlpha)
			t.Fatalf("n=%d: passed=%v, reference %v (table A²* %v ok=%v, reference %+v err %v)",
				len(xs), passed, want, a2, ok, ref, err)
		}
	})
}
