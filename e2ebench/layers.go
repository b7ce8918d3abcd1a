package main

// perLayer lists every per-layer metric in report order. A traced run
// reports each of them; a layer a workload does not exercise reads 0
// (see README.md for which workload moves which metric).
var perLayer = []struct{ name, unit string }{
	{"srvnet.wire_us", "us"},
	{"srvnet.bytes_per_op", "B"},
	{"srvnet.writes_per_op", "count"},
	{"vfs.read_us", "us"},
	{"vfs.write_us", "us"},
	{"core.apply_wait_p50_us", "us"},
	{"core.apply_wait_p99_us", "us"},
	{"core.sweep_us", "us"},
	{"core.handle_us", "us"},
	{"core.render_us", "us"},
	{"core.exec_us", "us"},
	{"shell.run_us", "us"},
	{"text.scroll_us", "us"},
	{"text.resident_mb", "MB"},
	{"userland.grep_ms", "ms"},
	{"journal.records_per_op", "count"},
	{"journal.bytes_per_op", "B"},
	{"notify.events_per_op", "count"},
	{"sessiond.spawn_ms", "ms"},
	{"world.build_ms", "ms"},
	{"world.boot_ms", "ms"},
	{"trace.overhead_frac", "fraction"},
}

// layerMetrics orders a traced run's per-layer values and appends the
// CPU profile's rows.
func layerMetrics(vals map[string]float64, shares map[string]float64) []metric {
	var out []metric
	for _, l := range perLayer {
		out = append(out, metric{name: l.name, value: vals[l.name], unit: l.unit})
	}
	return append(out, cpuMetrics(shares)...)
}
