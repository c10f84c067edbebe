package hdbench

// Metric names one number the benchmark reports. BENCHMARK.json carries
// the same lists; a test keeps the two in step.
type Metric struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change is rejected; it is also the
	// agreement bound for two sets of runs of the same code. Zero for
	// per-layer metrics, which have none.
	Bound float64
}

// atReference converts a value the machine's clock gave into what the
// reference machine's would have: the run was `speed` times slower than
// the reference, so times shrink and rates grow by that factor. Counts,
// sizes and ratios pass through.
func (m Metric) atReference(v, speed float64) float64 {
	switch m.Unit {
	case "s", "ms", "us", "ns":
		return v / speed
	case "1/s":
		return v * speed
	}
	return v
}

// EndToEnd lists what a vehicle or the fleet operator sees, measured
// with tracing off. Every workload reports all of them.
//
// The time metrics carry the widest bound a benchmark may declare: on the
// shared two-core box this was written on, the machine's own speed moves
// by 15-30 % for minutes at a time, so sets of runs of one binary taken a
// few minutes apart disagree by up to 18 % (README.md has the spreads).
// The counts repeat to within a percent and carry the tight bounds: a
// change that makes an operation allocate, copy or ship more is caught
// there even when the clock cannot resolve it.
var EndToEnd = []Metric{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p99_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.03},
	{"alloc_kb_per_op", "KB", "lower", 0.03},
	{"wire_kb_per_op", "KB", "lower", 0.03},
	{"live_heap_mb", "MB", "lower", 0.05},
}

// PerLayer lists the single-layer numbers of a traced run, layer =
// module name. A layer a workload does not have reports 0.
var PerLayer = []Metric{
	{"client.busy_ms_per_op", "ms", "lower", 0},
	{"client.requests_per_op", "count", "lower", 0},
	{"client.tiles_per_op", "count", "lower", 0},
	{"client.retries_per_op", "count", "lower", 0},
	{"client.list_kb_per_op", "KB", "lower", 0},
	{"client.tile_kb_per_op", "KB", "lower", 0},
	{"client.fetch_region_p50_ms", "ms", "lower", 0},
	{"client.put_tile_p50_ms", "ms", "lower", 0},

	{"codec.decode_us_per_tile", "us", "lower", 0},
	{"codec.decode_allocs_per_tile", "count", "lower", 0},
	{"codec.encode_us_per_tile", "us", "lower", 0},
	{"codec.checksum_us_per_tile", "us", "lower", 0},
	{"codec.tile_kb", "KB", "lower", 0},

	{"tiler.split_ms", "ms", "lower", 0},
	{"tiler.loadmap_ms_per_region", "ms", "lower", 0},

	{"resilience.busy_ms_per_op", "ms", "lower", 0},
	{"resilience.cache_hit_ratio", "ratio", "higher", 0},
	{"resilience.inner_per_request", "ratio", "lower", 0},
	{"resilience.coalesced_per_op", "count", "higher", 0},
	{"resilience.shed_per_op", "count", "lower", 0},

	{"tileserver.busy_ms_per_op", "ms", "lower", 0},
	{"tileserver.requests_per_op", "count", "lower", 0},

	{"store.get_ms_per_op", "ms", "lower", 0},
	{"store.gets_per_op", "count", "lower", 0},
	{"store.keys_ms_per_op", "ms", "lower", 0},
	{"store.keys_calls_per_op", "count", "lower", 0},
	{"store.put_ms_per_op", "ms", "lower", 0},
	{"store.puts_per_op", "count", "lower", 0},
	{"store.put_kb_per_op", "KB", "lower", 0},
	{"store.deletes_per_op", "count", "lower", 0},

	{"cluster.busy_ms_per_op", "ms", "lower", 0},
	{"cluster.leg_wall_ms_per_op", "ms", "lower", 0},
	{"cluster.shard_requests_per_op", "count", "lower", 0},
	{"cluster.shard_kb_per_op", "KB", "lower", 0},
	{"cluster.read_amplification", "ratio", "lower", 0},
	{"cluster.repairs_per_op", "count", "lower", 0},
	{"cluster.hints_per_op", "count", "lower", 0},
	{"cluster.ring_owners_ns", "ns", "lower", 0},

	{"ingest.submit_ms_per_op", "ms", "lower", 0},
	{"ingest.pipeline_wait_ms_per_op", "ms", "lower", 0},
	{"ingest.stage_validate_ms_per_op", "ms", "lower", 0},
	{"ingest.stage_screen_ms_per_op", "ms", "lower", 0},
	{"ingest.stage_fuse_ms_per_op", "ms", "lower", 0},
	{"ingest.stage_commit_ms_per_op", "ms", "lower", 0},
	{"ingest.stage_publish_ms_per_op", "ms", "lower", 0},
	{"ingest.tiles_put_per_op", "count", "lower", 0},
	{"ingest.useful_put_ratio", "ratio", "higher", 0},
	{"ingest.accepted_ratio", "ratio", "higher", 0},
	{"ingest.commits_per_op", "count", "lower", 0},
	{"ingest.gate_check_ms", "ms", "lower", 0},

	{"mapverify.verify_ms", "ms", "lower", 0},

	{"harness.worldgen_s", "s", "lower", 0},
	{"harness.calib_ms", "ms", "lower", 0},
	{"harness.round_cv", "ratio", "lower", 0},
	{"harness.trace_overhead_ratio", "ratio", "higher", 0},
	{"harness.samples", "count", "higher", 0},
}
