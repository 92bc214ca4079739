package normality

import (
	"math"
	"testing"

	"earlybird/internal/cluster"
	"earlybird/internal/cpuid"
	"earlybird/internal/dlb"
	"earlybird/internal/rng"
	"earlybird/internal/sortx"
	"earlybird/internal/stats"
	"earlybird/internal/workload"
)

// adPaths are the two ways adTableStatisticAbout takes the table's sum:
// the Go loop (adTableSum) and the AVX-512 kernel, which runs only
// where cpuid.AVX512F.
var adPaths = []struct {
	name   string
	kernel bool
}{{"table", false}, {"kernel", true}}

// forEachADPath runs test once per path, as a subtest named after it,
// with useKernel set for that path and restored after. The kernel
// subtest is skipped on a host without AVX-512F; the log says which
// ran, so every test log shows the paths its host covered.
func forEachADPath(t *testing.T, test func(t *testing.T)) {
	defer func(old bool) { useKernel = old }(useKernel)
	for _, p := range adPaths {
		t.Run(p.name, func(t *testing.T) {
			if p.kernel && !cpuid.AVX512F() {
				t.Skip("no AVX-512F on this host: the kernel path is not tested here")
			}
			t.Logf("useKernel = %v (AVX-512 kernel available: %v)", p.kernel, cpuid.AVX512F())
			useKernel = p.kernel
			test(t)
		})
	}
}

// appBlocks returns the 3,200 process iterations of a 2x8x200x48 fill
// of app, each sorted: the blocks the Table 1 verdicts see.
func appBlocks(tb testing.TB, app string) [][]float64 {
	tb.Helper()
	model, err := workload.ByName(app)
	if err != nil {
		tb.Fatal(err)
	}
	geom := cluster.Config{Trials: 2, Ranks: 8, Iterations: 200, Threads: 48, Seed: 1}
	col, err := cluster.RunColumnar(model, geom, dlb.Spec{}, 0, nil)
	if err != nil {
		tb.Fatal(err)
	}
	var blocks [][]float64
	col.Dataset().EachProcessIteration(func(_, _, _ int, xs []float64) {
		blocks = append(blocks, stats.Sorted(xs))
	})
	return blocks
}

// fillApps are the apps whose fills appBlocks draws.
var fillApps = []string{"minife", "minimd", "miniqmc"}

// TestADKernelMatchesTable holds the AVX-512 kernel to the Go loop it
// replaces: on every input both paths must return the same ok, A²*
// within 1e-9 (the rounding share of adTableMargin; only the order of
// the sum differs) and the same verdict at each of Stephens' levels.
// The inputs are random blocks of every shape at every n in
// 8..adMaxN, so every masked tail runs; the sorted blocks of a fill of
// each app; samples of ±0; deviations that are subnormal, alone (the
// deviation underflows, so no z is finite) and beside normal ones; and,
// at every position of a block, a NaN, an infinity and a value whose t
// lies just inside or just outside either end of the table.
func TestADKernelMatchesTable(t *testing.T) {
	if !cpuid.AVX512F() {
		t.Skip("no AVX-512F on this host: the verdicts run the Go loop")
	}
	defer func(old bool) { useKernel = old }(useKernel)
	inputs, outside, maxGap := 0, 0, 0.0
	check := func(name string, x []float64, sp spread) {
		t.Helper()
		var a2 [2]float64
		var ok [2]bool
		var passed [2][5]bool
		for p, kernel := range []bool{false, true} {
			useKernel = kernel
			a2[p], ok[p] = adTableStatisticAbout(x, sp)
			for i, alpha := range adCriticalSig {
				passed[p][i], _ = NewVerdicts(alpha).adPassed(x, sp)
			}
		}
		inputs++
		if ok[0] != ok[1] {
			t.Fatalf("%s n=%d: the Go loop gives ok=%v, the kernel ok=%v (x %v, spread %+v)",
				name, len(x), ok[0], ok[1], x, sp)
		}
		if !ok[0] {
			outside++
		} else if gap := math.Abs(a2[0] - a2[1]); !(gap <= 1e-9) {
			t.Fatalf("%s n=%d: the Go loop gives A²* %v, the kernel %v, %g apart", name, len(x), a2[0], a2[1], gap)
		} else {
			maxGap = math.Max(maxGap, gap)
		}
		if passed[0] != passed[1] {
			t.Fatalf("%s n=%d: verdicts at %v: Go loop %v, kernel %v", name, len(x), adCriticalSig, passed[0], passed[1])
		}
	}

	src := rng.New(43)
	for n := 8; n <= adMaxN; n++ {
		for name, gen := range verdictShapes {
			for rep := 0; rep < 4; rep++ {
				xs := gen(src, n)
				sortx.Sort(xs)
				check(name, xs, spreadOf(xs))
			}
		}
	}
	for _, app := range fillApps {
		for _, xs := range appBlocks(t, app) {
			check(app, xs, spreadOf(xs))
		}
	}

	negZero := math.Copysign(0, -1)
	for _, n := range []int{8, 13, 48} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = []float64{negZero, 0, negZero, 0}[i%4]
		}
		xs[0], xs[n-1] = -1, 1
		check("±0", xs, spreadOf(xs))
		tiny := make([]float64, n)
		for i := range tiny {
			tiny[i] = float64(i) * math.SmallestNonzeroFloat64
		}
		check("subnormal spread", tiny, spreadOf(tiny))
	}

	// With mean 0 and ss = n-1 the deviation is 1 and t = 256·x + 2880:
	// the block's own values stay well inside the table, and the edge
	// values are found by stepping x one ulp at a time across each end,
	// with t computed as adTableSum computes it.
	tOf := func(x float64) float64 { return x*adTableSteps + adTableZ*adTableSteps }
	loIn := -adTableZ
	for tOf(math.Nextafter(loIn, math.Inf(-1))) >= 0 {
		loIn = math.Nextafter(loIn, math.Inf(-1))
	}
	hiIn := adTableZ
	for !(tOf(hiIn) < adTableCells) {
		hiIn = math.Nextafter(hiIn, 0)
	}
	edges := map[string]float64{
		"t just inside 0":         loIn,
		"t just below 0":          math.Nextafter(loIn, math.Inf(-1)),
		"t just below the width":  hiIn,
		"t at the width":          math.Nextafter(hiIn, math.Inf(1)),
		"NaN":                     math.NaN(),
		"+Inf":                    math.Inf(1),
		"subnormal deviation":     -math.SmallestNonzeroFloat64,
		"smallest normal":         0x1p-1022,
		"negative zero deviation": negZero,
	}
	if !(tOf(edges["t just below 0"]) < 0 && tOf(edges["t at the width"]) >= adTableCells) {
		t.Fatal("the edge values do not straddle the table's ends")
	}
	for _, n := range []int{8, 13, 48, adMaxN - 3} {
		base := make([]float64, n)
		src.FillNormal(base, 0, 1)
		sp := spread{0, float64(n - 1)}
		for name, v := range edges {
			for i := 0; i < n; i++ {
				xs := append([]float64(nil), base...)
				xs[i] = v
				check(name, xs, sp)
			}
		}
	}
	t.Logf("%d inputs, %d outside the table on both paths; largest A²* gap between the paths %g", inputs, outside, maxGap)
}
