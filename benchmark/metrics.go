package main

// metricDef names one metric of BENCHMARK.json. TestBenchmarkJSON checks
// that the file and these tables say the same.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	// Per-layer metrics have none.
	bound float64
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Every workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"ops_per_s", "1/s", higher, 0.25},
	{"get_MBps", "MB/s", higher, 0.25},
	{"get_p50_ms", "ms", lower, 0.25},
	{"put_p50_ms", "ms", lower, 0.25},
	{"bcast_ms", "ms", lower, 0.25},
	{"reduce_ms", "ms", lower, 0.25},
	{"allreduce_ms", "ms", lower, 0.25},
	{"cpu_ms_per_op", "ms", lower, 0.25},
	{"alloc_KB_per_op", "KB", lower, 0.06},
	{"allocs_per_op", "count", lower, 0.1},
	{"peak_rss_MB", "MB", lower, 0.25},
}

// perLayer are the metrics of single modules, named <module>.<metric>,
// measured in the traced run: by timing the module's public functions on a
// bare instance (the ladder), or from the public counters of the
// workload's own cluster.
var perLayer = []metricDef{
	{"netem.tcp_copy_MBps_1MiB", "MB/s", higher, 0},
	{"netem.tcp_copy_MBps_64MiB", "MB/s", higher, 0},
	{"netem.dial_us", "us", lower, 0},
	{"netem.shaped_rate_ratio", "ratio", higher, 0},
	{"transport.pull_MBps", "MB/s", higher, 0},
	{"transport.pull_ceiling_ratio", "ratio", higher, 0},
	{"transport.alloc_B_per_payload_B", "ratio", lower, 0},
	{"transport.allocs_per_pull", "count", lower, 0},
	{"transport.pull_fixed_us", "us", lower, 0},
	{"transport.pull_us_1MiB", "us", lower, 0},
	{"transport.pull_file_MBps", "MB/s", higher, 0},
	{"transport.pull_range4_MBps", "MB/s", higher, 0},
	{"transport.pulls", "count", lower, 0},
	{"transport.ranged_pulls", "count", lower, 0},
	{"buffer.writeat_MBps", "MB/s", higher, 0},
	{"buffer.append_MBps", "MB/s", higher, 0},
	{"buffer.claim_ns", "ns", lower, 0},
	{"buffer.wake_us", "us", lower, 0},
	{"store.create_seal_us_1KiB", "us", lower, 0},
	{"store.create_seal_us_1MiB", "us", lower, 0},
	{"store.create_seal_us_64MiB", "us", lower, 0},
	{"store.acquire_ns", "ns", lower, 0},
	{"store.demotions", "count", lower, 0},
	{"store.demote_us", "us", lower, 0},
	{"spill.write_MBps", "MB/s", higher, 0},
	{"spill.readinto_MBps", "MB/s", higher, 0},
	{"spill.open_us", "us", lower, 0},
	{"wire.codec_ns", "ns", lower, 0},
	{"wire.codec_allocs", "count", lower, 0},
	{"wire.call_us", "us", lower, 0},
	{"wire.call2_per_s", "1/s", higher, 0},
	{"wire.frames_per_flush", "ratio", higher, 0},
	{"directory.put_inline_us", "us", lower, 0},
	{"directory.put_inline_r3_us", "us", lower, 0},
	{"directory.acquire_inline_us", "us", lower, 0},
	{"directory.lookup_us", "us", lower, 0},
	{"directory.acquire_release_us", "us", lower, 0},
	{"directory.rpcs_per_op", "count", lower, 0},
	{"directory.retries", "count", lower, 0},
	{"types.accumulate_f32_MBps", "MB/s", higher, 0},
	{"linkstate.observe_ns", "ns", lower, 0},
	{"linkstate.estimate_ns", "ns", lower, 0},
	{"linkstate.bw_estimate_ratio", "ratio", higher, 0},
	{"pool.getput_ns", "ns", lower, 0},
	{"core.put_us_1KiB", "us", lower, 0},
	{"core.put_us_1MiB", "us", lower, 0},
	{"core.put_us_64MiB", "us", lower, 0},
	{"core.getref_remote_us_1KiB", "us", lower, 0},
	{"core.getref_remote_us_1MiB", "us", lower, 0},
	{"core.getref_remote_us_64MiB", "us", lower, 0},
	{"core.get_overhead_us_1KiB", "us", lower, 0},
	{"core.get_overhead_us_1MiB", "us", lower, 0},
	{"core.get_overhead_us_64MiB", "us", lower, 0},
	{"core.get_tail_ms", "ms", lower, 0},
	{"core.put_tail_ms", "ms", lower, 0},
	{"core.getref_local_ns", "ns", lower, 0},
	{"core.getref_local_allocs", "count", lower, 0},
	{"core.get_copy_MBps", "MB/s", higher, 0},
	{"core.loccache_hit_ratio", "ratio", higher, 0},
	{"core.striped_get_MBps", "MB/s", higher, 0},
	{"core.bcast_ideal_ratio", "ratio", lower, 0},
	{"core.reduce_ideal_ratio", "ratio", lower, 0},
	{"core.reduce_loopback_ms", "ms", lower, 0},
	{"hoplite.start_cluster_ms_2", "ms", lower, 0},
	{"hoplite.start_cluster_ms_3", "ms", lower, 0},
	{"hoplite.start_cluster_ms_9", "ms", lower, 0},
	{"hoplite.allreduce_overhead_ms", "ms", lower, 0},
	{"trace.overhead_pct", "%", lower, 0},
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
