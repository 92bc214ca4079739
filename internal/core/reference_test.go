package core

import (
	"earlybird/internal/analysis"
	"earlybird/internal/network"
	"earlybird/internal/partcomm"
	"earlybird/internal/stats"
	"earlybird/internal/stats/normality"
	"earlybird/internal/trace"
)

// The reference analysis: the bodies of Metrics, Table1 and Feasibility
// (and the analysis functions behind them) as they were before the
// single exact pass, kept verbatim so the bit-identity tests can pin the
// pass against them. Each statistic sorts its own copy with the standard
// library, Feasibility recomputes the metrics and re-classifies the
// laggards, and the strategies run on a separate cursor pass.

func refReclaimableTime(xs []float64) float64 {
	max := stats.Max(xs)
	sum := 0.0
	for _, x := range xs {
		sum += max - x
	}
	return sum
}

func refIdleRatio(xs []float64) float64 {
	max := stats.Max(xs)
	if max <= 0 {
		return 0
	}
	return refReclaimableTime(xs) / (max * float64(len(xs)))
}

func refComputeMetricsInRange(d *trace.Dataset, laggardThreshold float64, fromIter, toIter int) analysis.AppMetrics {
	m := analysis.AppMetrics{App: d.App}
	nProc := 0
	medianSum, reclSum, ratioSum := 0.0, 0.0, 0.0
	laggards := 0
	d.EachProcessIteration(func(trial, rank, iter int, xs []float64) {
		if iter < fromIter || iter >= toIter {
			return
		}
		nProc++
		med := stats.Median(xs)
		medianSum += med
		reclSum += refReclaimableTime(xs)
		ratioSum += refIdleRatio(xs)
		if stats.Max(xs)-med > laggardThreshold {
			laggards++
		}
	})
	if nProc > 0 {
		m.MeanMedianSec = medianSum / float64(nProc)
		m.LaggardFraction = float64(laggards) / float64(nProc)
		m.AvgReclaimableProcSec = reclSum / float64(nProc)
		m.IdleRatioProc = ratioSum / float64(nProc)
	}

	nIter := 0
	reclAppSum, ratioAppSum, iqrSum := 0.0, 0.0, 0.0
	iqrMax := 0.0
	for i := fromIter; i < toIter; i++ {
		xs := d.IterationSamples(i)
		nIter++
		reclAppSum += refReclaimableTime(xs)
		ratioAppSum += refIdleRatio(xs)
		iqr := stats.IQR(xs)
		iqrSum += iqr
		if iqr > iqrMax {
			iqrMax = iqr
		}
	}
	if nIter > 0 {
		m.AvgReclaimableAppIterSec = reclAppSum / float64(nIter)
		m.IdleRatioAppIter = ratioAppSum / float64(nIter)
		m.IQRMeanSec = iqrSum / float64(nIter)
		m.IQRMaxSec = iqrMax
	}
	return m
}

func refLaggardsInRange(d *trace.Dataset, threshold float64, fromIter, toIter int) analysis.LaggardStats {
	var st analysis.LaggardStats
	magSum := 0.0
	d.EachProcessIteration(func(trial, rank, iter int, xs []float64) {
		if iter < fromIter || iter >= toIter {
			return
		}
		st.Total++
		mag := stats.Max(xs) - stats.Median(xs)
		if mag > threshold {
			st.WithLaggard++
			magSum += mag
		}
	})
	if st.Total > 0 {
		st.Fraction = float64(st.WithLaggard) / float64(st.Total)
	}
	if st.WithLaggard > 0 {
		st.MeanMagnitudeSec = magSum / float64(st.WithLaggard)
	}
	return st
}

func refProcessIterationNormality(d *trace.Dataset, alpha float64) *analysis.NormalitySummary {
	s := &analysis.NormalitySummary{Level: "process iteration", Total: d.NumProcessIterations()}
	idx := 0
	d.EachProcessIteration(func(trial, rank, iter int, xs []float64) {
		res := normality.Battery(xs, alpha)
		for _, t := range normality.Tests {
			if res[t].Passed() {
				s.Passed[t]++
				s.PassedSets[t] = append(s.PassedSets[t], idx)
			}
		}
		idx++
	})
	return s
}

func refTable1Row(d *trace.Dataset, alpha float64) analysis.Table1 {
	s := refProcessIterationNormality(d, alpha)
	var t1 analysis.Table1
	t1.App = d.App
	for _, t := range normality.Tests {
		t1.PassRates[t] = s.PassRate(t)
	}
	return t1
}

func refMetrics(s *Study) analysis.AppMetrics {
	return refComputeMetricsInRange(s.ds, s.opts.Policy.LaggardThresholdSec, 0, s.ds.Iterations)
}

func refTable1(s *Study) analysis.Table1 { return refTable1Row(s.ds, s.opts.Policy.Alpha) }

func refFeasibility(s *Study, bytesPerPart int, fabric network.Fabric, binTimeoutSec float64) Assessment {
	m := refMetrics(s)
	effThreshold := s.opts.Policy.LaggardThresholdSec
	if t := 3 * m.IQRMeanSec; t > effThreshold {
		effThreshold = t
	}
	a := Assessment{
		App:                 s.ds.App,
		PotentialOverlapSec: m.AvgReclaimableProcSec / float64(s.ds.Threads),
		LaggardFraction:     refLaggardsInRange(s.ds, effThreshold, 0, s.ds.Iterations).Fraction,
	}
	a.IQRToMedian = m.IQRToMedian()
	strategies := s.opts.Policy.Strategies
	if strategies == nil {
		strategies = []partcomm.Strategy{
			partcomm.Bulk{},
			partcomm.FineGrained{},
			partcomm.Binned{TimeoutSec: binTimeoutSec},
		}
	}
	a.Results = partcomm.EvaluateStream(s.ds.Cursor(), bytesPerPart, fabric, strategies)
	a.Recommendation = Classify(a.IQRToMedian, a.LaggardFraction)
	return a
}
