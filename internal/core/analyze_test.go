package core

import (
	"fmt"
	"reflect"
	"testing"

	"earlybird/internal/analysis"
	"earlybird/internal/cluster"
	"earlybird/internal/dlb"
	"earlybird/internal/network"
	"earlybird/internal/partcomm"
	"earlybird/internal/trace"
)

// sameAnalysis checks Study.Analyze, and each of Metrics, Table1,
// Feasibility and Laggards, against the pre-pass reference
// (reference_test.go) with reflect.DeepEqual, plus the phase-wise
// analysis functions over the study's second half and the
// process-iteration normality summary with its passing-set indices.
func sameAnalysis(t *testing.T, name string, s *Study) {
	t.Helper()
	const bytesPerPart, binTimeoutSec = 1 << 20, 1e-3
	fabric := network.OmniPath()
	wantM, wantT := refMetrics(s), refTable1(s)
	wantA := refFeasibility(s, bytesPerPart, fabric, binTimeoutSec)
	same := func(what string, got, want any) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %s differs from the reference\n got %+v\nwant %+v", name, what, got, want)
		}
	}

	gotM, gotT, gotA := s.Analyze(bytesPerPart, fabric, binTimeoutSec)
	same("Analyze metrics", gotM, wantM)
	same("Analyze table1", gotT, wantT)
	same("Analyze assessment", gotA, wantA)
	same("Metrics", s.Metrics(), wantM)
	same("Table1", s.Table1(), wantT)
	same("Feasibility", s.Feasibility(bytesPerPart, fabric, binTimeoutSec), wantA)

	d, th := s.ds, s.opts.Policy.LaggardThresholdSec
	same("Laggards", s.Laggards(), refLaggardsInRange(d, th, 0, d.Iterations))
	half := d.Iterations / 2
	same("ComputeMetricsInRange", analysis.ComputeMetricsInRange(d, th, half, d.Iterations),
		refComputeMetricsInRange(d, th, half, d.Iterations))
	same("LaggardsInRange", analysis.LaggardsInRange(d, th, half, d.Iterations),
		refLaggardsInRange(d, th, half, d.Iterations))
	same("ProcessIterationNormality", analysis.ProcessIterationNormality(d, s.opts.Policy.Alpha),
		refProcessIterationNormality(d, s.opts.Policy.Alpha))
}

func TestAnalyzeBitIdenticalAcrossAppsSeedsAndDLB(t *testing.T) {
	for _, app := range []string{"minife", "minimd", "miniqmc"} {
		for seed := uint64(1); seed <= 6; seed++ {
			for _, policy := range []string{dlb.PolicyStatic, dlb.PolicyLeWI, dlb.PolicyDROM} {
				s, err := NewStudy(Options{
					App:      app,
					Geometry: cluster.Config{Trials: 2, Ranks: 4, Iterations: 30, Threads: 48, Seed: seed},
					Policy:   PolicySpec{DLB: dlb.Spec{Policy: policy}},
				})
				if err != nil {
					t.Fatal(err)
				}
				sameAnalysis(t, fmt.Sprintf("%s/seed%d/%s", app, seed, policy), s)
			}
		}
	}
}

// TestAnalyzeBitIdenticalEdgeBlocks covers block sizes on either side of
// the battery's minimums — 1, 7 (below Anderson-Darling's 8), 19 (below
// D'Agostino's 20) and the paper's 48 — and a dataset holding a constant
// block and an all-zero block (the idle ratio's max <= 0 branch).
func TestAnalyzeBitIdenticalEdgeBlocks(t *testing.T) {
	for _, threads := range []int{1, 7, 19, 48} {
		for _, app := range []string{"minife", "miniqmc"} {
			s, err := NewStudy(Options{
				App:      app,
				Geometry: cluster.Config{Trials: 2, Ranks: 2, Iterations: 25, Threads: threads, Seed: 5},
			})
			if err != nil {
				t.Fatal(err)
			}
			sameAnalysis(t, fmt.Sprintf("%s/threads%d", app, threads), s)
		}
	}

	src := quickStudy(t, "minimd").Dataset()
	d := trace.NewDataset(src.App, src.Trials, src.Ranks, src.Iterations, src.Threads)
	src.EachProcessIteration(func(tr, r, i int, xs []float64) { copy(d.Times[tr][r][i], xs) })
	for k := range d.Times[0][1][3] {
		d.Times[0][1][3][k] = 0.025
		d.Times[1][0][7][k] = 0
	}
	s, err := FromDataset(d)
	if err != nil {
		t.Fatal(err)
	}
	sameAnalysis(t, "constant-and-zero-blocks", s)
}

// TestAnalyzeBitIdenticalCustomStrategies runs a strategy set holding the
// stateful EWMABinned and the median-relative LaggardAware: both see
// every sorted block of the pass in the reference cursor's order.
func TestAnalyzeBitIdenticalCustomStrategies(t *testing.T) {
	for _, app := range []string{"minife", "minimd", "miniqmc"} {
		s, err := NewStudy(Options{
			App:      app,
			Geometry: quickGeom,
			Policy: PolicySpec{Strategies: []partcomm.Strategy{
				partcomm.Bulk{},
				&partcomm.EWMABinned{Alpha: 0.2},
				partcomm.LaggardAware{ThresholdSec: 1e-3},
				partcomm.Binned{TimeoutSec: 0.5e-3},
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		sameAnalysis(t, app+"/custom-strategies", s)
	}
}
