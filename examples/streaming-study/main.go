// Example streaming-study analyses a study at 100x the paper's geometry
// — 76.8 million samples, a 614 MB tensor if materialised — in bounded
// memory: the streaming pipeline feeds every produced process iteration
// to online accumulators (exact moments, exact Table 1, histogram-based
// percentiles) and discards the samples immediately.
//
// Run with -quick for the paper's own geometry (768000 samples).
package main

import (
	"flag"
	"fmt"
	"runtime"

	"earlybird"
)

func main() {
	quick := flag.Bool("quick", false, "run at the paper's geometry instead of 100x")
	app := flag.String("app", "minife", "application model (minife|minimd|miniqmc)")
	flag.Parse()

	geom := earlybird.HugeGeometry()
	if *quick {
		geom = earlybird.PaperGeometry()
	}
	samples := geom.Trials * geom.Ranks * geom.Iterations * geom.Threads
	fmt.Printf("streaming %s at %d x %d x %d x %d = %d samples (%.0f MB if materialised)\n",
		*app, geom.Trials, geom.Ranks, geom.Iterations, geom.Threads,
		samples, float64(samples)*8/1e6)

	res, err := earlybird.StreamStudy(earlybird.Options{App: *app, Geometry: geom})
	if err != nil {
		panic(err)
	}

	fmt.Println(res.Metrics) // Section 4.2 scalars (IQR histogram-estimated)
	fmt.Println(res.Table1)  // Table 1 normality row (exact)
	s := res.Summary()
	fmt.Printf("summary: mean %.2f ms, stddev %.2f ms, p5 %.2f ms, median %.2f ms, p95 %.2f ms, max %.2f ms\n",
		1e3*s.Mean, 1e3*s.StdDev, 1e3*s.P5, 1e3*s.Median, 1e3*s.P95, 1e3*s.Max)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Printf("heap in use after run: %.0f MB (dataset would be %.0f MB)\n",
		float64(ms.HeapInuse)/1e6, float64(samples)*8/1e6)
}
