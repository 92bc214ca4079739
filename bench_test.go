// Benchmarks regenerating every table and figure of the paper's
// evaluation (one benchmark per experiment, DESIGN.md E1-E13). Dataset
// generation is excluded from timing via a shared suite built on first
// use; BenchmarkStudyGeneration measures generation itself.
//
// Run: go test -bench=. -benchmem
package earlybird_test

import (
	"io"
	"sync"
	"testing"
	"time"

	"earlybird"
	"earlybird/internal/analysis"
	"earlybird/internal/cluster"
	"earlybird/internal/dlb"
	"earlybird/internal/experiments"
	"earlybird/internal/network"
	"earlybird/internal/partcomm"
	"earlybird/internal/rng"
	"earlybird/internal/serve"
	"earlybird/internal/simclock"
	"earlybird/internal/stats/normality"
	"earlybird/internal/trace"
	"earlybird/internal/workload"
)

var (
	suiteOnce sync.Once
	suite     *experiments.Suite
)

// benchSuite returns a shared suite at the reduced geometry (3 x 4 x 60 x
// 48 = 34560 samples/app) with all three datasets pre-generated.
func benchSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		suite = experiments.NewSuite(experiments.Quick())
		for _, app := range experiments.AppNames {
			suite.Dataset(app)
		}
	})
	return suite
}

// BenchmarkStudyGeneration measures producing one application's dataset
// (the data-collection half of the pipeline).
func BenchmarkStudyGeneration(b *testing.B) {
	for _, app := range []string{"minife", "minimd", "miniqmc"} {
		b.Run(app, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := earlybird.NewStudy(earlybird.Options{App: app, Geometry: earlybird.QuickGeometry()})
				if err != nil {
					b.Fatal(err)
				}
				_ = s
			}
		})
	}
}

// BenchmarkAppLevelNormality regenerates E1 (Section 4.1, application
// aggregation: all tests reject).
func BenchmarkAppLevelNormality(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := s.E1AppLevelNormality()
		if !res["minife"][normality.ShapiroWilk].RejectNormal {
			b.Fatal("unexpected pass")
		}
	}
}

// BenchmarkAppIterationNormality regenerates E2 (per-iteration tests).
func BenchmarkAppIterationNormality(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum := s.E2AppIterationNormality()
		if sum["minife"].Total == 0 {
			b.Fatal("no iterations tested")
		}
	}
}

// BenchmarkTable1ProcessIterationNormality regenerates E3 (Table 1).
func BenchmarkTable1ProcessIterationNormality(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := s.E3Table1()
		if len(rows) != 3 {
			b.Fatal("rows")
		}
	}
}

// BenchmarkFig3Histograms regenerates E4 (application histograms, 10us
// bins).
func BenchmarkFig3Histograms(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := s.E4Fig3Histograms()
		if h["miniqmc"].Total == 0 {
			b.Fatal("empty histogram")
		}
	}
}

// BenchmarkFig4MiniFEPercentiles regenerates E5 (Figure 4).
func BenchmarkFig4MiniFEPercentiles(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps := s.E5Fig4MiniFEPercentiles()
		if len(ps.Values) == 0 {
			b.Fatal("no series")
		}
	}
}

// BenchmarkFig5MiniFELaggards regenerates E6 (Figure 5).
func BenchmarkFig5MiniFELaggards(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := s.E6Fig5MiniFELaggards()
		if r.LaggardFraction <= 0 {
			b.Fatal("no laggards")
		}
	}
}

// BenchmarkFig6MiniMDPercentiles regenerates E7 (Figure 6).
func BenchmarkFig6MiniMDPercentiles(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := s.E7Fig6MiniMDPercentiles()
		if r.Phase1IQRMean <= r.Phase2IQRMean {
			b.Fatal("phase structure lost")
		}
	}
}

// BenchmarkFig7MiniMDLaggards regenerates E8 (Figure 7).
func BenchmarkFig7MiniMDLaggards(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := s.E8Fig7MiniMDLaggards()
		if r.Phase1 == nil {
			b.Fatal("missing histogram")
		}
	}
}

// BenchmarkFig8MiniQMCPercentiles regenerates E9 (Figure 8).
func BenchmarkFig8MiniQMCPercentiles(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps := s.E9Fig8MiniQMCPercentiles()
		if len(ps.Values) == 0 {
			b.Fatal("no series")
		}
	}
}

// BenchmarkFig9MiniQMCHistogram regenerates E10 (Figure 9).
func BenchmarkFig9MiniQMCHistogram(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := s.E10Fig9MiniQMCHistogram()
		if h.Total == 0 {
			b.Fatal("empty histogram")
		}
	}
}

// BenchmarkScalarMetrics regenerates E11 (Section 4.2 scalars).
func BenchmarkScalarMetrics(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := s.E11Metrics()
		if m["miniqmc"].AvgReclaimableProcSec <= m["minimd"].AvgReclaimableProcSec {
			b.Fatal("ordering lost")
		}
	}
}

// BenchmarkEarlybirdOverlap regenerates E12 (delivery strategies,
// Figures 1-2 / Section 5).
func BenchmarkEarlybirdOverlap(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := s.E12Overlap()
		if len(res["minife"]) != 3 {
			b.Fatal("strategies missing")
		}
	}
}

// BenchmarkComputeTimeDerivation regenerates E13: the skew-cancelling
// compute-time derivation over one full recorder (Section 3.1).
func BenchmarkComputeTimeDerivation(b *testing.B) {
	clock := simclock.NewSkewed(simclock.NewVirtual(), []time.Duration{0, 5e6, -3e6, 250e3})
	rec := trace.NewRecorder(clock, 200, 48)
	for iter := 0; iter < 200; iter++ {
		for th := 0; th < 48; th++ {
			rec.Enter(iter, th, th)
			rec.Exit(iter, th, th)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum := 0.0
		for iter := 0; iter < 200; iter++ {
			for _, v := range rec.IterationSeconds(iter) {
				sum += v
			}
		}
		_ = sum
	}
}

// BenchmarkFullReport measures the complete paper reproduction pipeline
// end to end (all twelve experiments) at the reduced geometry.
func BenchmarkFullReport(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.WriteReport(io.Discard)
	}
}

func rngRoot() *rng.Source { return rng.New(1) }

// BenchmarkWorkloadFill measures raw sample generation per process
// iteration for each model.
func BenchmarkWorkloadFill(b *testing.B) {
	for _, m := range []workload.Model{
		workload.DefaultMiniFE(), workload.DefaultMiniMD(), workload.DefaultMiniQMC(),
	} {
		b.Run(m.Name(), func(b *testing.B) {
			root := rngRoot()
			out := make([]float64, 48)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.FillProcessIteration(root, i%7, i%5, i%199, out)
			}
		})
	}
}

// BenchmarkStrategyFinish measures one strategy evaluation over a single
// 48-thread arrival set.
func BenchmarkStrategyFinish(b *testing.B) {
	arrivals := make([]float64, 48)
	for i := range arrivals {
		arrivals[i] = 26.3e-3 + float64(i)*1e-5
	}
	f := network.OmniPath()
	for _, s := range []partcomm.Strategy{partcomm.Bulk{}, partcomm.FineGrained{}, partcomm.Binned{TimeoutSec: 1e-3}} {
		b.Run(s.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if s.FinishTime(arrivals, 1<<20, f) <= 0 {
					b.Fatal("bad finish time")
				}
			}
		})
	}
}

// BenchmarkStudyMaterialized runs the classic pipeline at the paper's
// geometry: generate the full 768000-sample dataset, then compute the
// Section 4.2 metrics from the materialised tensor. The B/op column is
// the number the streaming benchmark below is measured against.
func BenchmarkStudyMaterialized(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := earlybird.NewStudy(earlybird.Options{App: "minife"})
		if err != nil {
			b.Fatal(err)
		}
		if m := s.Metrics(); m.MeanMedianSec <= 0 {
			b.Fatal("implausible metrics")
		}
	}
}

// BenchmarkStudyAnalyze is the exact analysis behind the /v1/study
// endpoint — Study.Analyze: the Section 4.2 metrics, the Table 1 row and
// the feasibility assessment in one pass, at the service defaults (1 MiB
// partitions, Omni-Path, 1 ms bins) — over a pre-filled 2x8x200x48
// dataset per app. Generation happens before the timer starts. It is
// the bench gate's benchmark of the exact path.
func BenchmarkStudyAnalyze(b *testing.B) {
	for _, app := range []string{"minife", "minimd", "miniqmc"} {
		s, err := earlybird.NewStudy(earlybird.Options{
			App:      app,
			Geometry: earlybird.Geometry{Trials: 2, Ranks: 8, Iterations: 200, Threads: 48, Seed: 1},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(app, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, t1, a := s.Analyze(1<<20, earlybird.OmniPath(), 1e-3)
				if m.MeanMedianSec <= 0 || t1.App != app || len(a.Results) != 3 {
					b.Fatal("implausible analysis")
				}
			}
		})
	}
}

// BenchmarkShardObserve is the compute of one /v1/shard request: the
// block kernel folding a 1x8x200x48 trial shard of each app into the
// metrics and Table 1 accumulators, one sort per block. The columnar
// data is generated before the timer starts, as a shard reads it from
// the engine's cache. It is the bench gate's benchmark of the shard
// path.
func BenchmarkShardObserve(b *testing.B) {
	geom := cluster.Config{Trials: 1, Ranks: 8, Iterations: 200, Threads: 48, Seed: 1}
	for _, app := range []string{"minife", "minimd", "miniqmc"} {
		model, err := workload.ByName(app)
		if err != nil {
			b.Fatal(err)
		}
		col, err := cluster.RunColumnar(model, geom, dlb.Spec{}, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(app, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				macc := analysis.NewMetricsAccumulator(app, analysis.DefaultLaggardThresholdSec)
				tacc := analysis.NewTable1Accumulator(app, normality.DefaultAlpha)
				analysis.NewKernel(macc, tacc).ObserveCursor(col.Cursor(), 0)
				if macc.Blocks() != int64(geom.Ranks*geom.Iterations) || tacc.Blocks() != macc.Blocks() {
					b.Fatal("shard observed the wrong number of blocks")
				}
			}
		})
	}
}

// BenchmarkShardWire is the codec half of one /v1/shard exchange over
// a 1x8x200x48 trial shard of each app: the worker encodes both
// accumulators straight into a sealed record, and the coordinator
// unseals it, checks it against the request, decodes the two states
// and merges them. The kernel fills the accumulators before the timer
// starts. It is the bench gate's benchmark of the shard transport.
func BenchmarkShardWire(b *testing.B) {
	geom := cluster.Config{Trials: 1, Ranks: 8, Iterations: 200, Threads: 48, Seed: 1}
	for _, app := range []string{"minife", "minimd", "miniqmc"} {
		model, err := workload.ByName(app)
		if err != nil {
			b.Fatal(err)
		}
		col, err := cluster.RunColumnar(model, geom, dlb.Spec{}, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		req, err := serve.ShardRequest{App: app, Geometry: &geom, TrialLo: 0, TrialHi: 1}.Resolve()
		if err != nil {
			b.Fatal(err)
		}
		macc := analysis.NewMetricsAccumulator(app, req.LaggardSec)
		tacc := analysis.NewTable1Accumulator(app, req.Alpha)
		analysis.NewKernel(macc, tacc).ObserveCursor(col.Cursor(), 0)
		hdr := serve.ShardResponse{
			App: app, Geometry: geom, Alpha: req.Alpha, LaggardThresholdSec: req.LaggardSec,
			TrialLo: 0, TrialHi: 1, Blocks: macc.Blocks(),
		}
		b.Run(app, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rec, err := serve.AppendShardRecord(nil, &hdr, macc, tacc)
				if err != nil {
					b.Fatal(err)
				}
				st, err := req.Accept(rec)
				if err != nil {
					b.Fatal(err)
				}
				merged := analysis.NewMetricsAccumulator(app, req.LaggardSec)
				merged.Merge(st.Metrics)
				mergedT := analysis.NewTable1Accumulator(app, req.Alpha)
				mergedT.Merge(st.Table1)
				if merged.Blocks() != hdr.Blocks || mergedT.Blocks() != hdr.Blocks {
					b.Fatal("merged the wrong number of blocks")
				}
				b.SetBytes(int64(len(rec)))
			}
		})
	}
}

// BenchmarkStudyStreaming runs the same study and the same metrics at
// the paper's geometry through the streaming pipeline: samples feed
// per-worker accumulators as they are produced and are never held as a
// dataset. Compare time, B/op and allocs/op against
// BenchmarkStudyMaterialized (make bench-json records both).
func BenchmarkStudyStreaming(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := earlybird.StreamMetrics(earlybird.Options{App: "minife"})
		if err != nil {
			b.Fatal(err)
		}
		if m.MeanMedianSec <= 0 {
			b.Fatal("implausible metrics")
		}
	}
}

// BenchmarkStudyStreamingHuge is the streaming pipeline at 100x the
// paper's sample count (HugeGeometry, 76.8M samples — a 614 MB tensor
// if materialised). One iteration is a full study, so run it with a
// small -benchtime; it exists to measure how the hot-path optimisations
// compound at scale, where the per-block costs dominate completely.
func BenchmarkStudyStreamingHuge(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := earlybird.StreamMetrics(earlybird.Options{App: "minife", Geometry: earlybird.HugeGeometry()})
		if err != nil {
			b.Fatal(err)
		}
		if m.MeanMedianSec <= 0 {
			b.Fatal("implausible metrics")
		}
	}
}
