package main

// endToEnd are the metrics a -trace 0 run reports, for every workload. An
// operation is the unit a user of the workload waits for: a plan job
// (eval-steady), one WCET analysis call (wcet-analysis), one generated
// program through the conformance oracle (conform-corpus), one visad job
// from submit to done (serve-closedloop).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
	{"rss_mb", "MB", "lower"},
}

// perLayer are the metrics a -trace 1 run reports: host time of calls into
// each internal/ package measured by the ladder on the six C-lab
// benchmarks, the pinned conform corpus and a pinned visad session; Go
// runtime counters over the traced phase; and exact counts that a
// simulator-speed change must leave identical.
var perLayer = []metricDef{
	// Simulator layers, one task of each benchmark.
	{"exec.fill_ns_per_inst", "ns", "lower"},
	{"mem.read_ns", "ns", "lower"},
	{"simple.feed_ns_per_inst", "ns", "lower"},
	{"ooo.feed_ns_per_inst", "ns", "lower"},
	{"cache.access_ns", "ns", "lower"},
	{"bpred.gshare_ns", "ns", "lower"},
	{"core.solve_us", "us", "lower"},
	{"rt.run_processor_ms", "ms", "lower"},
	{"rt.self_frac", "ratio", "lower"},
	{"engine.busy_frac", "ratio", "higher"},

	// Static analysis, per benchmark program.
	{"cfg.build_ms", "ms", "lower"},
	{"absint.analyze_ms", "ms", "lower"},
	{"wcet.new_ms", "ms", "lower"},
	{"wcet.pass_ms", "ms", "lower"},
	{"wcet.pass_ms.max", "ms", "lower"},
	{"core.build_table_ms", "ms", "lower"},

	// Conformance oracle and per-program construction.
	{"conform.gen_us", "us", "lower"},
	{"conform.check_ms", "ms", "lower"},
	{"conform.check_ms_p90", "ms", "lower"},
	{"exec.new_us", "us", "lower"},
	{"simple.new_us", "us", "lower"},
	{"ooo.new_us", "us", "lower"},
	{"wcet.new_ms_small", "ms", "lower"},

	// Service and journal.
	{"serve.submit_ms", "ms", "lower"},
	{"serve.post_rtt_ms", "ms", "lower"},
	{"serve.first_event_ms", "ms", "lower"},
	{"serve.overhead_ms", "ms", "lower"},
	{"engine.run_ms", "ms", "lower"},
	{"wal.append_us", "us", "lower"},
	{"wal.append_us_p99", "us", "lower"},
	{"wal.replay_ms", "ms", "lower"},
	{"serve.recovery_ms", "ms", "lower"},

	// Go runtime over the traced phase, and the traced throughput (its
	// difference from the untraced ops_per_s is the tracing overhead).
	{"go.gc_cpu_frac", "ratio", "lower"},
	{"go.alloc_mb_per_op", "MB", "lower"},
	{"trace.ops_per_s", "1/s", "higher"},

	// Exact counts: identical on every run; any change means the model
	// (or the workload definition) changed.
	{"sim.instructions", "count", "lower"},
	{"sim.cycles_simple", "count", "lower"},
	{"sim.cycles_complex", "count", "lower"},
	{"cache.imisses", "count", "lower"},
	{"cache.dmisses", "count", "lower"},
	{"rt.missed_tasks", "count", "lower"},
	{"wcet.passes", "count", "lower"},
	{"conform.timing_runs", "count", "higher"},
	{"serve.journal_bytes_per_job", "bytes", "lower"},
	{"serve.events_per_job", "count", "lower"},
	{"model.tight_savings_pct", "%", "higher"},
	{"model.wcet_over_simple", "ratio", "lower"},
}
