package core

import (
	"bytes"
	"math"
	"testing"

	"earlybird/internal/analysis"
	"earlybird/internal/cluster"
	"earlybird/internal/dlb"
	"earlybird/internal/stats"
)

// TestStreamingIQRAccuracy pins the streamed iteration IQR statistics
// against the exact ones at the paper's trial shape (2×8×200×48, seeds
// 1–6 per app): the mean and the max over seeds of each field's
// relative error stay within the t-digest's, the estimator the
// histogram replaced (its errors, measured the same way, are the
// tdigest bounds), and within a bound near the histogram's own
// measured errors (up to 3.4e-3 mean, 7.5e-3 max), so that a loss of
// resolution shows. The cursor pass measured here gives the bits of
// every streamed source (TestFleetSweepIQRBitIdentical).
func TestStreamingIQRAccuracy(t *testing.T) {
	type bound struct{ mean, max float64 }
	tdigest := map[string][2]bound{ // IQRMeanSec, IQRMaxSec
		"minife":  {{9.6e-3, 2.2e-2}, {8.2e-2, 1.6e-1}},
		"minimd":  {{1.3e-2, 2.6e-2}, {9.9e-2, 2.0e-1}},
		"miniqmc": {{2.3e-3, 3.2e-3}, {7.6e-3, 2.2e-2}},
	}
	histogram := bound{5e-3, 1e-2}
	const seeds = 6
	for app, want := range tdigest {
		var mean, max [2]float64
		for seed := uint64(1); seed <= seeds; seed++ {
			study, err := NewStudy(Options{App: app, Geometry: cluster.Config{Trials: 2, Ranks: 8, Iterations: 200, Threads: 48, Seed: seed}})
			if err != nil {
				t.Fatal(err)
			}
			exact := study.Metrics()
			got := analysis.ComputeMetricsStreaming(app, study.Dataset().Cursor(), analysis.DefaultLaggardThresholdSec)
			for f, pair := range [][2]float64{{got.IQRMeanSec, exact.IQRMeanSec}, {got.IQRMaxSec, exact.IQRMaxSec}} {
				e := math.Abs(pair[0]-pair[1]) / pair[1]
				mean[f] += e / seeds
				max[f] = math.Max(max[f], e)
			}
		}
		for f, name := range []string{"IQRMeanSec", "IQRMaxSec"} {
			t.Logf("%s %s: relative error mean %.2e, max %.2e", app, name, mean[f], max[f])
			if mean[f] > want[f].mean || max[f] > want[f].max {
				t.Errorf("%s %s: error mean %.2e / max %.2e, worse than the t-digest's %.2e / %.2e",
					app, name, mean[f], max[f], want[f].mean, want[f].max)
			}
			if mean[f] > histogram.mean || max[f] > histogram.max {
				t.Errorf("%s %s: error mean %.2e / max %.2e, over %.0e / %.0e",
					app, name, mean[f], max[f], histogram.mean, histogram.max)
			}
		}
	}
}

// TestStreamStudySummaryMatchesExact: the application-level percentiles
// of StreamResult.Summary lie within one histogram bin — at most
// 2/(QuantileBins-1) of the sample range, plus 1 ns — of the exact
// dataset's, the IQR within two, and each within 4% of the exact IQR
// (measured over seeds 1–3: up to 3.0% for minife, whose laggard tail
// sets the range, 1.2% for minimd and 0.1% for miniqmc, where the
// t-digest was within 0.2% for all three); the moment fields are exact
// up to rounding.
func TestStreamStudySummaryMatchesExact(t *testing.T) {
	for _, app := range []string{"minife", "minimd", "miniqmc"} {
		opts := Options{App: app, Geometry: cluster.SmallConfig()}
		res, err := StreamStudy(opts)
		if err != nil {
			t.Fatal(err)
		}
		study, err := NewStudy(opts)
		if err != nil {
			t.Fatal(err)
		}
		got, want := res.Summary(), stats.Summarize(study.Dataset().AllSamples())
		if got.N != want.N || got.Min != want.Min || got.Max != want.Max || !approxEqual(got.Mean, want.Mean, 1e-9) {
			t.Errorf("%s: exact fields %+v vs %+v", app, got, want)
		}
		bin := 2*(want.Max-want.Min)/(stats.QuantileBins-1) + 1e-9
		for _, c := range []struct {
			name      string
			got, want float64
			tol       float64
		}{
			{"P5", got.P5, want.P5, bin},
			{"P25", got.P25, want.P25, bin},
			{"Median", got.Median, want.Median, bin},
			{"P75", got.P75, want.P75, bin},
			{"P95", got.P95, want.P95, bin},
			{"IQR", got.IQR, want.IQR, 2 * bin},
		} {
			if d := math.Abs(c.got - c.want); d > c.tol || d > 0.04*want.IQR {
				t.Errorf("%s %s: streamed %v vs exact %v (tolerance %v, and 4%% of the IQR %v)", app, c.name, c.got, c.want, c.tol, want.IQR)
			}
		}
	}
}

// TestStreamStudyBitIdenticalAcrossWorkers: a streaming study is the
// same bits — metrics with their IQR fields, Table 1, moments and the
// application-level histogram — whether its trials fill on one, two or
// four goroutines, static and rebalanced alike.
func TestStreamStudyBitIdenticalAcrossWorkers(t *testing.T) {
	for _, app := range []string{"minife", "minimd", "miniqmc"} {
		for _, policy := range []string{"static", "lewi"} {
			opts := Options{App: app, Geometry: cluster.Config{Trials: 5, Ranks: 4, Iterations: 40, Threads: 48, Seed: 7}}
			spec, err := dlb.Parse(policy)
			if err != nil {
				t.Fatal(err)
			}
			opts.Policy.DLB = spec
			var first *StreamResult
			var firstHist []byte
			for _, workers := range []int{1, 2, 4} {
				res, err := streamRun(opts, true, true, workers)
				if err != nil {
					t.Fatal(err)
				}
				hist, _ := res.Quantiles.MarshalBinary()
				if first == nil {
					first, firstHist = res, hist
					continue
				}
				if res.Metrics != first.Metrics || res.Table1 != first.Table1 || res.Moments != first.Moments || !bytes.Equal(hist, firstHist) {
					t.Errorf("%s %s: %d workers differ from 1:\n%+v\n%+v", app, policy, workers, res.Metrics, first.Metrics)
				}
			}
		}
	}
}
