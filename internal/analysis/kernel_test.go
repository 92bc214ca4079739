package analysis

import (
	"bytes"
	"testing"

	"earlybird/internal/cluster"
	"earlybird/internal/dlb"
	"earlybird/internal/sortx"
	"earlybird/internal/stats"
	"earlybird/internal/stats/normality"
	"earlybird/internal/workload"
)

// referenceMetricsObserve is MetricsAccumulator's fold as it was before
// the block kernel: its own copy and sort, the sum taken while copying.
func referenceMetricsObserve(a *MetricsAccumulator, scratch *[]float64, trial, iter int, xs []float64) {
	n := len(xs)
	if n == 0 {
		return
	}
	*scratch = (*scratch)[:0]
	sum := 0.0
	for _, x := range xs {
		*scratch = append(*scratch, x)
		sum += x
	}
	sorted := *scratch
	sortx.Sort(sorted)
	max := sorted[n-1]
	ta := a.trials[trial]
	if ta == nil {
		ta = &trialAccum{iters: map[int]*iterPartial{}}
		a.trials[trial] = ta
	}
	med := stats.PercentileSorted(sorted, 50)
	recl := float64(n)*max - sum
	ta.nProc++
	ta.medianSum += med
	ta.reclSum += recl
	if max > 0 {
		ta.ratioSum += recl / (max * float64(n))
	}
	if max-med > a.threshold {
		ta.laggards++
	}
	ip := ta.iters[iter]
	if ip == nil {
		ip = &iterPartial{max: max}
		ta.iters[iter] = ip
	} else if max > ip.max {
		ip.max = max
	}
	ip.n += int64(n)
	ip.sum += sum
	h := a.iqrs[iter]
	if h == nil {
		h = new(stats.QuantileHistogram)
		a.iqrs[iter] = h
	}
	h.AddSorted(sorted)
}

// TestKernelMatchesStandaloneAccumulators pins the shared block kernel
// to the code it replaced: metrics and Table 1 accumulators fed through
// one Kernel (one sort per block) marshal to the same bytes as the
// former per-accumulator fold and normality.BatteryScratch, for every
// app under static and LeWI fills. The shard bit-identity tests cannot
// see this — both sides of them run the kernel.
func TestKernelMatchesStandaloneAccumulators(t *testing.T) {
	for _, policy := range []dlb.Spec{{}, {Policy: dlb.PolicyLeWI}} {
		for _, model := range []workload.Model{workload.DefaultMiniFE(), workload.DefaultMiniMD(), workload.DefaultMiniQMC()} {
			cfg := cluster.Config{Trials: 2, Ranks: 3, Iterations: 9, Threads: 48, Seed: 7}
			col, err := cluster.RunColumnar(model, cfg, policy, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			app := model.Name()
			macc := NewMetricsAccumulator(app, DefaultLaggardThresholdSec)
			tacc := NewTable1Accumulator(app, normality.DefaultAlpha)
			NewKernel(macc, tacc).ObserveCursor(col.Cursor(), 3)

			mref := NewMetricsAccumulator(app, DefaultLaggardThresholdSec)
			tref := NewTable1Accumulator(app, normality.DefaultAlpha)
			var scratch []float64
			cur := col.Cursor()
			for cur.Next() {
				b := cur.Block()
				referenceMetricsObserve(mref, &scratch, b.Trial+3, b.Iter, b.Times)
				res := normality.BatteryScratch(b.Times, nil, normality.DefaultAlpha)
				tref.total++
				for _, test := range normality.Tests {
					if res[test].Passed() {
						tref.passed[test]++
					}
				}
			}
			for name, pair := range map[string][2]interface{ MarshalBinary() ([]byte, error) }{
				"metrics": {macc, mref},
				"table1":  {tacc, tref},
			} {
				got, err1 := pair[0].MarshalBinary()
				want, err2 := pair[1].MarshalBinary()
				if err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s %v %s: kernel state differs from the standalone fold", app, policy, name)
				}
			}
		}
	}
}
