package main

// metricDef names one metric and its unit. BENCHMARK.json lists the same
// metrics with their direction and bound; a test keeps the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the flow or of smtd sees. Untraced
// runs print exactly these, each measured on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},      // median of the run's repeated set-ups
	{"flow_s", "s"},       // median op latency (a Table 1 op, a flow, an assignment at 2 workers); mean job latency on serve
	{"flow_tail_s", "s"},  // highest percentile of op latency with ten samples beyond it
	{"ops_per_s", "1/s"},  // ops completed per second of the closed loop
	{"peak_rss_mb", "MB"}, // VmHWM of the workload process
}

// stageSlugs are the flow stages the traced run attributes time to.
var stageSlugs = []string{
	"assign", "vgnd-convert", "switch-structure", "mte", "cts",
	"hold-eco", "measure", "reopt", "signoff",
}

// perLayer are the metrics a traced run prints: every one on every
// workload, zero where the workload does not reach that layer.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, s := range stageSlugs {
		out = append(out, metricDef{"stage." + s + "_s", "s"})
	}
	out = append(out, []metricDef{
		{"trace.stage_coverage", "ratio"},
		{"trace.overhead_s", "s"},
		{"liberty.generate_s", "s"},
		{"gen.build_s", "s"},
		{"synth.map_s", "s"},
		{"place.place_s", "s"},
		{"sta.minperiod_s", "s"},
		{"assign.score_s", "s"},
		{"assign.commit_s", "s"},
		{"assign.retime_s", "s"},
		{"assign.unwind_s", "s"},
		{"assign.passes", "count"},
		{"assign.commits", "count"},
		{"assign.reverts", "count"},
		{"assign.kept_ratio", "ratio"},
		{"assign.w1_s", "s"},
		{"assign.w2_w1_ratio", "ratio"},
		{"sim.activity_s", "s"},
		{"power.standby_s", "s"},
		{"power.dynamic_s", "s"},
		{"sta.analyze-pre_s", "s"},
		{"sta.analyze-post_s", "s"},
		{"core.stage-vitals_s", "s"},
		{"engine.cache_hits", "count"},
		{"engine.cache_misses", "count"},
		{"engine.cache_hit_ratio", "ratio"},
		{"vgnd.clusters", "count"},
		{"vgnd.cells_per_switch", "ratio"},
		{"vgnd.reopt_resized", "count"},
		{"core.holders", "count"},
		{"eco.hold_buffers", "count"},
		{"cts.clock_buffers", "count"},
	}...)
	for _, s := range []string{"submit", "queue_wait", "run", "notify_poll", "notify_sse", "report_poll", "report_sse"} {
		out = append(out,
			metricDef{"server." + s + "_p50_ms", "ms"},
			metricDef{"server." + s + "_tail_ms", "ms"})
	}
	return append(out, []metricDef{
		{"imp_leak_pct", "%"},
		{"imp_area_pct", "%"},
		{"assign_leak_mw", "mW"},
		{"wns_min_ns", "ns"},
	}...)
}()
