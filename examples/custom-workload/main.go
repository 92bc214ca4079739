// custom-workload shows how to study your own application's thread
// behaviour: define a workload model (or wrap measured data), run the
// study, and get the same analysis and feasibility verdict the paper
// derives for the Mantevo proxies.
//
// The example models two hypothetical applications:
//
//   - "pipeline": a stage-imbalanced solver where one thread per
//     iteration carries an extra reduction (the single-laggard assumption
//     of the original partitioned-communication paper); and
//   - "adaptive": an AMR-style code whose per-thread work follows a
//     lognormal distribution (heavy right tail).
package main

import (
	"fmt"
	"log"

	"earlybird"
	"earlybird/internal/rng"
	"earlybird/internal/workload"
)

func main() {
	geometry := earlybird.QuickGeometry()

	// A built-in building block: exactly one laggard per iteration.
	pipeline := &workload.SingleLaggardModel{
		AppName:   "pipeline",
		MedianSec: 12e-3,
		JitterSec: 0.05e-3,
		LagSec:    4e-3,
	}

	// A fully custom model via the Func adapter: lognormal work per
	// thread, so a heavy tail of slow threads every iteration.
	adaptive := &workload.Func{
		AppName: "adaptive",
		Fill: func(s *rng.Source, trial, rank, iter int, out []float64) {
			for i := range out {
				out[i] = 8e-3 * s.LogNormal(0, 0.35)
			}
		},
	}

	for _, model := range []workload.Model{pipeline, adaptive} {
		study, err := earlybird.NewStudy(earlybird.Options{
			Model:    model,
			Geometry: geometry,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("=== %s ===\n", study.App())
		m, t1, a := study.Analyze(256<<10, earlybird.OmniPath(), 0.5e-3)
		fmt.Println(m)
		fmt.Println(t1)
		fmt.Print(a)
		fmt.Println()
	}
}
