package main

// metricSpec names one reported metric and its unit. The two lists below
// are the benchmark's contract with BENCHMARK.json; metrics_test.go keeps
// them in step.
type metricSpec struct{ name, unit string }

var endToEndMetrics = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"allocs_per_op", "count"},
	{"peak_rss_mb", "MiB"},
	{"sim_cycles", "cycles"},
}

var perLayerMetrics = []metricSpec{
	{"minic.parse_ms", "ms"},
	{"lower.lower_ms", "ms"},
	{"lower.flatten_ms", "ms"},
	{"lower.blocks", "count"},
	{"interp.run_ms", "ms"},
	{"interp.instrs", "count"},
	{"interp.ns_per_instr", "ns"},
	{"analysis.analyze_ms", "ms"},
	{"finegrain.pack_us", "us"},
	{"finegrain.packs_per_op", "count"},
	{"sim.replayer_ms", "ms"},
	{"sim.trace_len", "count"},
	{"sim.lower_bound_us", "us"},
	{"sim.fine_walk_bound_us", "us"},
	{"sim.makespan_us", "us"},
	{"sim.bound_tightness", "ratio"},
	{"partition.moveloop_ms", "ms"},
	{"engine.partition_ms.a1500x1", "ms"},
	{"engine.partition_ms.a1500x8", "ms"},
	{"engine.partition_ms.a1200x8r2", "ms"},
	{"engine.partition_ms.a1200x8pf", "ms"},
	{"engine.partition_ms.jpeg", "ms"},
	{"engine.scored", "count"},
	{"engine.replays", "count"},
	{"engine.closed_form", "count"},
	{"engine.incremental", "count"},
	{"engine.memo_hits", "count"},
	{"engine.pruned", "count"},
	{"engine.prune_ratio", "ratio"},
	{"engine.jpeg_closed_form", "count"},
	{"engine.jpeg_incremental", "count"},
	{"server.hit_us", "us"},
	{"server.miss_ms", "ms"},
	{"server.jpeg_miss_ms", "ms"},
	{"cache.hit_ratio", "ratio"},
	{"self_ms.minic", "ms"},
	{"self_ms.lower", "ms"},
	{"self_ms.interp", "ms"},
	{"self_ms.analysis", "ms"},
	{"self_ms.finegrain", "ms"},
	{"self_ms.sim", "ms"},
	{"self_ms.partition", "ms"},
	{"self_ms.engine", "ms"},
	{"self_ms.server", "ms"},
	{"self_ms.probe", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}

// pick returns exactly the listed metrics from m, in the listed units. A
// listed metric that was not measured is a bug in the benchmark: it panics.
func pick(m map[string]metric, specs []metricSpec) map[string]metric {
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		v, ok := m[s.name]
		if !ok {
			panic("perfbench: metric " + s.name + " was not measured")
		}
		out[s.name] = metric{v.Value, s.unit}
	}
	return out
}
