package main

// The metric catalogue. BENCHMARK.json is the contract's copy of it;
// a test keeps the two identical.

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// roundSeconds is BENCHMARK.json's run_seconds: how long one round
// measures.
const roundSeconds = 20

var workloadNames = []string{"ckpt-llm", "ckpt-smallobj", "svc-readwrite", "sim-ior"}

var workloadDefs = []workloadDef{
	{"ckpt-llm", "paper configuration, LLM object-size mix: memtable insert, table build and vfs writes do all the work; WAL, codec, compaction, cache and svc do none, so their optimisations must show no change here"},
	{"ckpt-smallobj", "WAL, snappy, block cache and compaction on, ~970 small objects per step, working set larger than the cache: the general-purpose path, an order of magnitude slower per byte"},
	{"svc-readwrite", "two tenants through svc on two shards, one committing while one scans: a write-path gain that costs readers, and any admission/ring/shard-lock overhead, shows here"},
	{"sim-ior", "Fig. 5 and Fig. 10 sweeps on the simulator: sim, mpisim, pfs, ior and netsim do the work and the real-FS layers none; virtual bandwidths must repeat bit for bit"},
}

var endToEndMetrics = []metricDef{
	{"commit_MBps", "MB/s", "higher", 0.25},
	{"commit_p50_ms", "ms", "lower", 0.25},
	{"restore_MBps", "MB/s", "higher", 0.25},
	{"restore_p50_ms", "ms", "lower", 0.25},
	{"cpu_s_per_GiB", "s/GiB", "lower", 0.25},
	{"alloc_B_per_payload_B", "B/B", "lower", 0.04},
	{"stored_B_per_live_B", "B/B", "lower", 0.05},
	{"sim_wall_s", "s", "lower", 0.25},
	{"rss_peak_MiB", "MiB", "lower", 0.2},
	{"setup_s", "s", "lower", 0.25},
}

var perLayerMetrics = []metricDef{
	// ckpt: spans around the benchmark's own ckpt calls. core.Manager's
	// bookkeeping sits between those and the Store boundary and cannot
	// be split off from outside, so it is part of ckpt.*self_s.
	{Name: "ckpt.write_busy_s", Unit: "s", Better: "lower"},
	{Name: "ckpt.commit_busy_s", Unit: "s", Better: "lower"},
	{Name: "ckpt.restore_busy_s", Unit: "s", Better: "lower"},
	{Name: "ckpt.self_s", Unit: "s", Better: "lower"},
	{Name: "ckpt.restore_self_s", Unit: "s", Better: "lower"},
	{Name: "ckpt.commit_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "ckpt.commit_max_ms", Unit: "ms", Better: "lower"},
	{Name: "ckpt.restore_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "ckpt.vars_per_step", Unit: "count", Better: "lower"},
	// core: the Store boundary (decorator spans).
	{Name: "core.put_calls", Unit: "count", Better: "lower"},
	{Name: "core.put_busy_s", Unit: "s", Better: "lower"},
	{Name: "core.put_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.put_p99_us", Unit: "us", Better: "lower"},
	{Name: "core.barrier_calls", Unit: "count", Better: "lower"},
	{Name: "core.barrier_busy_s", Unit: "s", Better: "lower"},
	{Name: "core.get_calls", Unit: "count", Better: "lower"},
	{Name: "core.get_busy_s", Unit: "s", Better: "lower"},
	{Name: "core.get_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.scan_calls", Unit: "count", Better: "lower"},
	{Name: "core.scan_busy_s", Unit: "s", Better: "lower"},
	{Name: "core.del_calls", Unit: "count", Better: "lower"},
	// lsm: engine counters of the traced epoch.
	{Name: "lsm.self_s", Unit: "s", Better: "lower"},
	{Name: "lsm.flush_count", Unit: "count", Better: "lower"},
	{Name: "lsm.flush_bytes", Unit: "B", Better: "lower"},
	{Name: "lsm.compaction_count", Unit: "count", Better: "lower"},
	{Name: "lsm.compaction_bytes", Unit: "B", Better: "lower"},
	{Name: "lsm.wal_bytes", Unit: "B", Better: "lower"},
	{Name: "lsm.wal_group_size_mean", Unit: "count", Better: "higher"},
	{Name: "lsm.write_amp", Unit: "B/B", Better: "lower"},
	{Name: "lsm.stall_s", Unit: "s", Better: "lower"},
	{Name: "lsm.stall_episodes", Unit: "count", Better: "lower"},
	{Name: "lsm.slowdown_s", Unit: "s", Better: "lower"},
	{Name: "lsm.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "lsm.tables_at_end", Unit: "count", Better: "lower"},
	// lsm probes: direct lsm.DB calls on the scratch filesystem.
	{Name: "lsm.probe.put_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "lsm.probe.put_wal_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "lsm.probe.flush_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "lsm.probe.flush_snappy_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "lsm.probe.compact_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "lsm.probe.get_hit_us", Unit: "us", Better: "lower"},
	{Name: "lsm.probe.get_miss_us", Unit: "us", Better: "lower"},
	{Name: "lsm.probe.get_absent_us", Unit: "us", Better: "lower"},
	{Name: "lsm.probe.scan_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "lsm.probe.open_ms", Unit: "ms", Better: "lower"},
	// snappy, on the ckpt-smallobj payload.
	{Name: "snappy.encode_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "snappy.decode_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "snappy.ratio", Unit: "ratio", Better: "higher"},
	// vfs: the timing filesystem wrapper.
	{Name: "vfs.write_calls", Unit: "count", Better: "lower"},
	{Name: "vfs.write_bytes", Unit: "B", Better: "lower"},
	{Name: "vfs.write_busy_s", Unit: "s", Better: "lower"},
	{Name: "vfs.write_mean_KiB", Unit: "KiB", Better: "higher"},
	{Name: "vfs.sync_calls", Unit: "count", Better: "lower"},
	{Name: "vfs.sync_busy_s", Unit: "s", Better: "lower"},
	{Name: "vfs.read_calls", Unit: "count", Better: "lower"},
	{Name: "vfs.read_bytes", Unit: "B", Better: "lower"},
	{Name: "vfs.read_busy_s", Unit: "s", Better: "lower"},
	{Name: "vfs.create_calls", Unit: "count", Better: "lower"},
	{Name: "vfs.remove_calls", Unit: "count", Better: "lower"},
	{Name: "vfs.rename_calls", Unit: "count", Better: "lower"},
	{Name: "vfs.write_amp", Unit: "B/B", Better: "lower"},
	{Name: "vfs.read_amp", Unit: "B/B", Better: "lower"},
	// svc: spans around the benchmark's Tenant calls.
	{Name: "svc.put_busy_s", Unit: "s", Better: "lower"},
	{Name: "svc.put_p50_us", Unit: "us", Better: "lower"},
	{Name: "svc.put_p99_us", Unit: "us", Better: "lower"},
	{Name: "svc.barrier_busy_s", Unit: "s", Better: "lower"},
	{Name: "svc.scan_busy_s", Unit: "s", Better: "lower"},
	{Name: "svc.self_s", Unit: "s", Better: "lower"},
	{Name: "svc.admit_wait_s", Unit: "s", Better: "lower"},
	{Name: "svc.read_passes", Unit: "count", Better: "higher"},
	// iosched and obs hot calls.
	{Name: "iosched.acquire_ns", Unit: "ns", Better: "lower"},
	{Name: "iosched.disabled_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.counter_inc_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.hist_observe_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.snapshot_us", Unit: "us", Better: "lower"},
	// sim stack.
	{Name: "sim.switch_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.spawn_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.ior_posix_wall_s", Unit: "s", Better: "lower"},
	{Name: "sim.ior_lsmio_wall_s", Unit: "s", Better: "lower"},
	{Name: "sim.ior_read_wall_s", Unit: "s", Better: "lower"},
	{Name: "sim.ior_xfers_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sim.virtual_s_per_wall_s", Unit: "ratio", Better: "higher"},
	// Go runtime over the traced epoch's commit phase.
	{Name: "go.gc_count", Unit: "count", Better: "lower"},
	{Name: "go.gc_pause_s", Unit: "s", Better: "lower"},
	{Name: "go.mallocs_per_step", Unit: "count", Better: "lower"},
	{Name: "go.heap_peak_MiB", Unit: "MiB", Better: "lower"},
	// What tracing itself cost.
	{Name: "trace.spans", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}
