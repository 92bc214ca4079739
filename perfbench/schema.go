package main

// metricDef is one printed metric: its name and unit, exactly as
// BENCHMARK.json declares them.
type metricDef struct{ name, unit string }

// e2eSchema is what an untraced run prints, in order.
var e2eSchema = []metricDef{
	{"setup_s", "s"},
	{"cpu_p50_ms", "ms"},
	{"cpu_p90_ms", "ms"},
	{"req_per_cpu_s", "1/s"},
	{"alloc_mb_per_req", "MiB"},
	{"peak_rss_mb", "MiB"},
	{"ok_ratio", "ratio"},
}

// layerSchema is what a traced run prints, in order. Layers a workload
// does not exercise read 0.
var layerSchema = []metricDef{
	{"serve.http_us", "us"},
	{"serve.handler_us", "us"},
	{"serve.decode_us", "us"},
	{"serve.encode_us", "us"},
	{"serve.result_hit_ratio", "ratio"},
	{"engine.resolve_us", "us"},
	{"engine.dataset_hit_ratio", "ratio"},
	{"cluster.fill_ms", "ms"},
	{"cluster.fill_alloc_mb", "MiB"},
	{"core.metrics_ms", "ms"},
	{"core.table1_ms", "ms"},
	{"core.feasibility_ms", "ms"},
	{"analysis.observe_ms", "ms"},
	{"analysis.marshal_us", "us"},
	{"analysis.state_kb", "KiB"},
	{"analysis.unmarshal_us", "us"},
	{"analysis.merge_us", "us"},
	{"analysis.finalize_us", "us"},
	{"fleet.place_us", "us"},
	{"fleet.transport_us", "us"},
	{"fleet.dispatch_ms", "ms"},
	{"fleet.overhead_ms", "ms"},
	{"fleet.shard_skew_ms", "ms"},
	{"fleet.speculations", "count"},
	{"fleet.failovers", "count"},
	{"fleet.wall_p50_ms", "ms"},
	{"wire.seal_us", "us"},
	{"wire.unseal_us", "us"},
	{"scenario.compile_verify_us", "us"},
	{"runtime.gc_cpu_pct", "%"},
	{"calib.ref_ms", "ms"},
	{"raw.cpu_p50_ms", "ms"},
	{"trace.e2e_ms", "ms"},
	{"trace.layers_ms", "ms"},
	{"trace.unexplained_pct", "%"},
	{"trace.overhead_pct", "%"},
}

// spanMetrics maps each span-timed layer metric to its span name.
var spanMetrics = map[string]string{
	"serve.http_us":         "serve.http",
	"serve.handler_us":      "serve.handler",
	"serve.decode_us":       "serve.decode",
	"serve.encode_us":       "serve.encode",
	"engine.resolve_us":     "engine.resolve",
	"cluster.fill_ms":       "cluster.fill",
	"core.metrics_ms":       "core.metrics",
	"core.table1_ms":        "core.table1",
	"core.feasibility_ms":   "core.feasibility",
	"analysis.observe_ms":   "analysis.observe",
	"analysis.marshal_us":   "analysis.marshal",
	"analysis.unmarshal_us": "analysis.unmarshal",
	"analysis.merge_us":     "analysis.merge",
	"analysis.finalize_us":  "analysis.finalize",
	"fleet.place_us":        "fleet.place",
	"fleet.transport_us":    "fleet.transport",
}
