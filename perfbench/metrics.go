package main

// A metric name with its unit, as BENCHMARK.json lists it.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics every untraced run prints, on every
// workload. README.md gives each one's meaning.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics every traced run prints, named after the
// module they measure. Counts are exact work counters; the rest are
// timed around the benchmark's own calls into the layer.
var perLayer = []metricSpec{
	{"crawler.control_s", "s"},
	{"crawler.adblock_s", "s"},
	{"crawler.m1_s", "s"},
	{"crawler.visits", "count"},
	{"crawler.failed_visits", "count"},
	{"crawler.visit_p50_ms", "ms"},
	{"crawler.visit_p99_ms", "ms"},
	{"crawler.alloc_mb", "MB"},
	{"crawler.replay_s", "s"},
	{"crawler.replay_no_parse_cache_s", "s"},
	{"jsvm.steps", "count"},
	{"jsvm.scripts", "count"},
	{"jsvm.parse_bytes", "B"},
	{"jsvm.parse_ns_per_byte", "ns"},
	{"jsvm.exec_steps", "count"},
	{"jsvm.exec_ns_per_step", "ns"},
	{"canvas.calls", "count"},
	{"imaging.pixels", "count"},
	{"imaging.encode_ns_per_pixel", "ns"},
	{"analysis.pages_per_s", "1/s"},
	{"analysis.cache_hits", "count"},
	{"analysis.cache_misses", "count"},
	{"analysis.cache_hit_ratio", "ratio"},
	{"detect.classify_ns_per_canvas", "ns"},
	{"cluster.build_ms", "ms"},
	{"attrib.attribute_ms", "ms"},
	{"blocklist.requests", "count"},
	{"blocklist.match_ns_per_request", "ns"},
	{"report.render_s", "s"},
	{"bundle.write_s", "s"},
	{"bundle.bytes", "B"},
	{"checkpoint.writes", "count"},
	{"checkpoint.bytes", "B"},
	{"snapshot.hits", "count"},
	{"snapshot.misses", "count"},
	{"snapshot.hit_ratio", "ratio"},
	{"netsim.retries", "count"},
	{"bundle.load_s", "s"},
	{"serve.index_build_s", "s"},
	{"serve.lookup_direct_ns", "ns"},
	{"serve.http_share", "ratio"},
	{"serve.batcher_coalesce_ratio", "ratio"},
	{"serve.alloc_bytes_per_lookup", "B"},
	{"serve.lookups_per_s", "1/s"},
	{"serve.p50_ms", "ms"},
	{"serve.p99_ms", "ms"},
	{"serve.latency_samples", "count"},
	{"untraced.wall_s", "s"},
	{"traced.wall_s", "s"},
	{"untraced.cpu_s", "s"},
	{"traced.cpu_s", "s"},
	{"untraced.ops_per_s", "1/s"},
	{"traced.ops_per_s", "1/s"},
}

// endToEndMetrics attaches the units to an untraced run's values.
func endToEndMetrics(v map[string]float64) map[string]metric {
	ms := map[string]metric{}
	for _, m := range endToEnd {
		ms[m.name] = metric{v[m.name], m.unit}
	}
	return ms
}

// layerMetrics assembles a traced study's per-layer metrics from its
// measured layers and its exact counters.
func layerMetrics(r *studyReport) map[string]metric {
	ms := map[string]metric{}
	for _, m := range perLayer {
		if v, ok := r.Layers[m.name]; ok {
			ms[m.name] = metric{v, m.unit}
		} else if v, ok := r.Counters[m.name]; ok {
			ms[m.name] = metric{float64(v), m.unit}
		}
	}
	return ms
}
