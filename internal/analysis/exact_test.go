package analysis

import (
	"reflect"
	"runtime"
	"testing"

	"earlybird/internal/cluster"
	"earlybird/internal/dlb"
	"earlybird/internal/sortx"
	"earlybird/internal/stats/normality"
	"earlybird/internal/workload"
)

// TestExactPassTable1Allocs pins the exact pass's Table 1 bookkeeping:
// a pass read only through Table1 keeps one verdict byte per block
// beside its laggard magnitudes and allocates no PassedSets, within a
// bound on its bytes per block; Normality then lists each test's
// passing blocks exactly as normality.Verdicts.Passed finds them, once.
func TestExactPassTable1Allocs(t *testing.T) {
	// A pass holds 8 bytes of laggard magnitude and 1 verdict byte per
	// block; the rest is the kernel's scratch block and the pass itself.
	const maxBytesPerBlock = 16
	cfg := cluster.Config{Trials: 2, Ranks: 8, Iterations: 200, Threads: 48, Seed: 1}
	for _, app := range []string{"minife", "miniqmc"} {
		model, err := workload.ByName(app)
		if err != nil {
			t.Fatal(err)
		}
		col, err := cluster.RunColumnar(model, cfg, dlb.Spec{}, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		d := col.Dataset()
		blocks := cfg.Trials * cfg.Ranks * cfg.Iterations
		opts := PassOptions{Battery: true, Alpha: normality.DefaultAlpha}

		// The verdicts' tables initialise on first use; warm them first.
		RunExactPass(d, 0, 1, opts)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		p := RunExactPass(d, 0, d.Iterations, opts)
		row := p.Table1()
		runtime.ReadMemStats(&after)
		perBlock := float64(after.TotalAlloc-before.TotalAlloc) / float64(blocks)
		t.Logf("%s: %.2f bytes per block for a pass read through Table1", app, perBlock)
		if perBlock > maxBytesPerBlock {
			t.Errorf("%s: the pass allocated %.2f bytes per block, want at most %d", app, perBlock, maxBytesPerBlock)
		}
		for _, test := range normality.Tests {
			if p.normality.PassedSets[test] != nil {
				t.Errorf("%s: Table1 built the %v passing-block list", app, test)
			}
		}

		var want [3][]int
		var counts [3]int
		k := 0
		verdicts := normality.NewVerdicts(opts.Alpha)
		d.EachProcessIteration(func(_, _, _ int, xs []float64) {
			sorted := append([]float64(nil), xs...)
			sortx.Sort(sorted)
			passed := verdicts.Passed(xs, sorted)
			for _, test := range normality.Tests {
				if passed[test] {
					want[test] = append(want[test], k)
					counts[test]++
				}
			}
			k++
		})
		for i := 0; i < 2; i++ {
			s := p.Normality()
			if s.Total != blocks || s.Passed != counts || !reflect.DeepEqual(s.PassedSets, want) {
				t.Fatalf("%s: Normality call %d: %d sets, counts %v, lists of %d/%d/%d; want %d, %v, %d/%d/%d",
					app, i+1, s.Total, s.Passed, len(s.PassedSets[0]), len(s.PassedSets[1]), len(s.PassedSets[2]),
					blocks, counts, len(want[0]), len(want[1]), len(want[2]))
			}
		}
		for _, test := range normality.Tests {
			if got := row.PassRates[test]; got != float64(counts[test])/float64(blocks) {
				t.Errorf("%s: Table 1 %v pass rate %v, want %d/%d", app, test, got, counts[test], blocks)
			}
		}
	}
}
