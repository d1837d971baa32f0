package main

// metricDef names one reported metric and its unit, as BENCHMARK.json
// lists it.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run's result line. The report
// prints three more for every workload. fail_frac, fallback_frac and
// wrong_outputs are 0 on a healthy run, and a metric's spread is judged
// relative to its median: they reach the result as its "failed" and
// "correct" fields. latency_p99_ms follows the machine's scheduling
// stalls more than the program (see README.md), so it is reported but
// not gated.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_fns_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"cpu_ms_per_fn", "ms"},
	{"peak_rss_mb", "MB"},
	{"evals_saved_frac", "frac"},
	{"code_size_ratio", "ratio"},
}

// perLayer are the metrics of a traced run's result line.
var perLayer = func() []metricDef {
	ms := []metricDef{
		{"lcmserver.cache_hit_frac", "frac"},
		{"lcmserver.disk_hits", "count"},
		{"lcmserver.disk_bytes", "bytes"},
		{"lcmserver.peer_hits", "count"},
		{"lcmserver.peer_misses", "count"},
		{"lcmserver.shed", "count"},
		{"lcmserver.canceled", "count"},
		{"lcmserver.fell_back", "count"},
		{"lcmserver.queue_depth_max", "count"},
		{"lcmserver.inflight_mean", "count"},
		{"lcmserver.hit_rtt_us_p50", "us"},
		{"lcmserver.miss_rtt_us_p50", "us"},
		{"lcmserver.solver_parallel_slices", "count"},
		{"lcmserver.solver_sparse_skips", "count"},
		{"lcmgate.hop_ms_mean", "ms"},
		{"lcmgate.failovers", "count"},
		{"lcmgate.dedupe_joins", "count"},
		{"lcmgate.shed", "count"},
		{"lcmclient.encode_us_per_req", "us"},
		{"lcmclient.decode_us_per_resp", "us"},
		{"textir.parse_us_per_fn", "us"},
		{"textir.parse_module_us_per_req", "us"},
		{"ir.print_us_per_fn", "us"},
		{"ir.validate_us_per_fn", "us"},
		{"ir.clone_us_per_fn", "us"},
		{"pipeline.run_us_per_fn", "us"},
		{"verify.temps_defined_us_per_fn", "us"},
		{"graph.split_us_per_fn", "us"},
		{"graph.edges_split_per_fn", "count"},
		{"props.collect_us_per_fn", "us"},
		{"props.exprs_per_fn", "count"},
		{"nodes.build_us_per_fn", "us"},
		{"nodes.nodes_per_fn", "count"},
		{"lcm.analyze_us_per_fn", "us"},
		{"lcm.placement_us_per_fn", "us"},
		{"lcm.transform_us_per_fn", "us"},
		{"lcm.derived_ops_per_fn", "count"},
		{"lcm.inserted_per_fn", "count"},
		{"lcm.replaced_per_fn", "count"},
	}
	for _, p := range problems {
		for _, c := range []string{"passes", "node_visits", "vector_ops"} {
			ms = append(ms, metricDef{"dataflow." + p + "." + c, "count"})
		}
	}
	return append(ms,
		metricDef{"cachestore.put_us_p50", "us"},
		metricDef{"cachestore.get_us_p50", "us"},
		metricDef{"cachestore.open_ms", "ms"},
		metricDef{"go.alloc_kb_per_fn", "KiB"},
		metricDef{"go.mallocs_per_fn", "count"},
		metricDef{"go.gc_cpu_frac", "frac"},
		metricDef{"loadgen.late_p99_ms", "ms"},
		metricDef{"loadgen.late_frac", "frac"},
		metricDef{"trace.overhead_frac", "frac"},
	)
}()
