package main

// metricDef names one reported metric and its unit. The lists below are the
// ones BENCHMARK.json declares (a test keeps the two in step); every run
// prints all of one list, and a layer a workload never calls reports 0.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"rps", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// cellConfigNames are the table configurations, as metric-name suffixes.
var cellConfigNames = []string{"native", "llvm-base", "pa", "pa-dummy", "ours", "ours-static", "ours-sampled", "valgrind"}

// perLayer are the metrics of a traced run.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"minic.compile_ms", "ms"},
		{"interp.ns_per_instr", "ns"},
	}
	for _, c := range cellConfigNames {
		defs = append(defs, metricDef{"experiment.cell_s." + c, "s"})
	}
	return append(defs,
		metricDef{"go.alloc_mb", "MB"},
		metricDef{"go.gc_cycles", "count"},
		metricDef{"go.gc_pause_ms", "ms"},
		metricDef{"sim.instrs", "count"},
		metricDef{"sim.mem_accesses", "count"},
		metricDef{"sim.syscalls", "count"},
		metricDef{"sim.traps", "count"},
		metricDef{"trace.parse_us", "us"},
		metricDef{"trace.parse_alloc_kb", "KB"},
		metricDef{"pageguard.setup_us", "us"},
		metricDef{"pageguard.setup_alloc_kb", "KB"},
		metricDef{"trace.replay_us", "us"},
		metricDef{"trace.replay_self_us", "us"},
		metricDef{"trace.replay_alloc_kb", "KB"},
		metricDef{"trace.replay_allocs", "count"},
		metricDef{"trace.render_us", "us"},
		metricDef{"trace.render_alloc_kb", "KB"},
		metricDef{"pageguard.malloc_ns", "ns"},
		metricDef{"pageguard.free_ns", "ns"},
		metricDef{"pageguard.read_ns", "ns"},
		metricDef{"pageguard.write_ns", "ns"},
		metricDef{"serve.rtt_us", "us"},
		metricDef{"serve.self_us", "us"},
		metricDef{"serve.cache_hit_ratio", "ratio"},
		metricDef{"serve.shed_share", "ratio"},
		metricDef{"serve.body_kb", "KB"},
		metricDef{"serve.gc_per_req", "count"},
		metricDef{"p50_ms", "ms"},
		metricDef{"tail_ms", "ms"},
		metricDef{"loadgen.late_ms", "ms"},
		metricDef{"slo_miss_share", "ratio"},
		metricDef{"fail_share", "ratio"},
		metricDef{"bench.traced_wall_s", "s"},
	)
}()
