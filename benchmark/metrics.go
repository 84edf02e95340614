package main

// Two kinds of number, never mixed. Host metrics are wall-clock and
// memory of this Go program; model metrics are what the simulated
// CephFS cluster did, and for a fixed seed they repeat exactly. A
// change meant only to make the simulator faster must leave every
// exact metric and the run digest identical.

type metricKind int

const (
	endToEnd metricKind = iota
	perLayer
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units, directions and bounds; harness_test.go keeps the two
// in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Kind   metricKind
	// Bound is the share by which an end-to-end metric may get worse
	// before a change counts as a regression (0: no relative bound).
	Bound float64
	// Exact marks model outcomes and counts: identical on every run of
	// the same code and seed, whatever the host does.
	Exact bool
	// Only confines the metric to one workload (it reads 0 elsewhere).
	Only string
}

// opsFailedFrac is reported through the result's attempted/failed
// counts rather than as a bounded metric: it is 0 on every clean run,
// and any increase is a failure.
const opsFailedFrac = "ops_failed_frac"

var registry = []metricDef{
	// End to end: what a user of the simulator sees. The bounds are what
	// the host and the seed allow: the driver draws a new seed for every
	// run, and over ten seeds on the shared 2-core host (-seconds 20) the
	// quartiles of sim_ops_per_s and setup_s lie 6-12% of the median
	// apart, those of the others under 3% (README.md has the tables). At
	// a fixed seed every Exact metric is held to equality instead, by the
	// digest and by -agree.
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "sim_ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "model_iops", Unit: "ops/tick", Better: "higher", Bound: 0.10, Exact: true},
	{Name: "model_lat_mean_ticks", Unit: "ticks", Better: "lower", Bound: 0.10, Exact: true},
	// No relative bound can hold the three below. The imbalance factor
	// sits near zero and its quartiles lie up to 28% of the median apart
	// across seeds; the other two exist on one workload only.
	{Name: "model_if_mean", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "model_jct_p50_ticks", Unit: "ticks", Better: "lower", Exact: true, Only: "mixed_rebalance"},
	{Name: "model_speedup_vs_vanilla", Unit: "ratio", Better: "higher", Exact: true, Only: "mixed_rebalance"},
	{Name: opsFailedFrac, Unit: "ratio", Better: "lower", Exact: true},

	// In situ, from the traced run.
	{Name: "cluster.tick_ms_p50", Unit: "ms", Better: "lower", Kind: perLayer},
	{Name: "cluster.tick_ms_p99", Unit: "ms", Better: "lower", Kind: perLayer},
	{Name: "cluster.epoch_tick_ms_p50", Unit: "ms", Better: "lower", Kind: perLayer},
	{Name: "cluster.epoch_close_share", Unit: "ratio", Better: "lower", Kind: perLayer},
	{Name: "cluster.step_self_share", Unit: "ratio", Better: "lower", Kind: perLayer},
	{Name: "cluster.allocs_per_tick", Unit: "count", Better: "lower", Kind: perLayer},
	{Name: "cluster.alloc_bytes_per_op", Unit: "B", Better: "lower", Kind: perLayer},
	{Name: "cluster.gc_cpu_frac", Unit: "ratio", Better: "lower", Kind: perLayer},
	{Name: "cluster.heap_inuse_peak_mb", Unit: "MB", Better: "lower", Kind: perLayer},
	{Name: "cluster.new_self_ms", Unit: "ms", Better: "lower", Kind: perLayer},
	{Name: "cluster.warmup_ms", Unit: "ms", Better: "lower", Kind: perLayer},
	{Name: "cluster.parallel_speedup_w2", Unit: "ratio", Better: "higher", Kind: perLayer, Only: "wide_parallel"},
	{Name: "cluster.lease_serves_per_kop", Unit: "count", Better: "higher", Kind: perLayer, Exact: true},
	{Name: "cluster.promotions", Unit: "count", Better: "higher", Kind: perLayer, Exact: true},
	{Name: "cluster.scale_ups", Unit: "count", Better: "lower", Kind: perLayer, Exact: true},
	{Name: "cluster.tracing_overhead_frac", Unit: "ratio", Better: "lower", Kind: perLayer},
	{Name: "workload.setup_ms", Unit: "ms", Better: "lower", Kind: perLayer},
	{Name: "workload.ops_drawn", Unit: "count", Better: "higher", Kind: perLayer, Exact: true},
	{Name: "core.rebalance_ms_per_epoch", Unit: "ms", Better: "lower", Kind: perLayer},
	{Name: "core.rebalance_share", Unit: "ratio", Better: "lower", Kind: perLayer},
	{Name: "core.rebalances", Unit: "count", Better: "lower", Kind: perLayer, Exact: true},
	{Name: "balancer.vanilla_rebalance_ms_per_epoch", Unit: "ms", Better: "lower", Kind: perLayer, Only: "mixed_rebalance"},

	// Exact counts from public accessors at the end of the traced run.
	{Name: "mds.migrated_inodes", Unit: "count", Better: "lower", Kind: perLayer, Exact: true},
	{Name: "mds.exports_completed", Unit: "count", Better: "lower", Kind: perLayer, Exact: true},
	{Name: "mds.exports_aborted", Unit: "count", Better: "lower", Kind: perLayer, Exact: true},
	{Name: "mds.exports_dropped", Unit: "count", Better: "lower", Kind: perLayer, Exact: true},
	{Name: "mds.forwards_per_kop", Unit: "count", Better: "lower", Kind: perLayer, Exact: true},
	{Name: "mds.stalls_per_kop", Unit: "count", Better: "lower", Kind: perLayer, Exact: true},
	{Name: "client.stall_ticks_per_kop", Unit: "ticks", Better: "lower", Kind: perLayer, Exact: true},
	{Name: "client.retries", Unit: "count", Better: "lower", Kind: perLayer, Exact: true},
	{Name: "namespace.inodes", Unit: "count", Better: "higher", Kind: perLayer, Exact: true},
	{Name: "namespace.partition_entries", Unit: "count", Better: "lower", Kind: perLayer, Exact: true},
	{Name: "namespace.partition_versions", Unit: "count", Better: "lower", Kind: perLayer, Exact: true},
	{Name: "replica.records_shipped", Unit: "count", Better: "lower", Kind: perLayer, Exact: true},
	{Name: "replica.leases_granted", Unit: "count", Better: "higher", Kind: perLayer, Exact: true},
	{Name: "replica.leases_revoked", Unit: "count", Better: "lower", Kind: perLayer, Exact: true},
	{Name: "tenant.throttled_frac", Unit: "ratio", Better: "lower", Kind: perLayer, Exact: true},
	{Name: "tenant.max_debt", Unit: "ratio", Better: "lower", Kind: perLayer, Exact: true},
	{Name: "metrics.batch_flushes", Unit: "count", Better: "lower", Kind: perLayer, Exact: true},
	{Name: "metrics.mean_batch_size", Unit: "count", Better: "higher", Kind: perLayer, Exact: true},
	{Name: "audit.passes", Unit: "count", Better: "higher", Kind: perLayer, Exact: true},
	{Name: "audit.violations", Unit: "count", Better: "lower", Kind: perLayer, Exact: true},
	{Name: "obs.events_per_tick", Unit: "count", Better: "lower", Kind: perLayer, Exact: true},

	// Layer replay: one layer's exported entry points at a time, on the
	// traced run's final tree and partition.
	{Name: "workload.next_ns_per_op", Unit: "ns", Better: "lower", Kind: perLayer},
	{Name: "namespace.resolve_warm_ns_per_op", Unit: "ns", Better: "lower", Kind: perLayer},
	{Name: "namespace.resolve_cold_ns_per_op", Unit: "ns", Better: "lower", Kind: perLayer},
	{Name: "namespace.chain_ns_per_op", Unit: "ns", Better: "lower", Kind: perLayer},
	{Name: "namespace.create_ns_per_op", Unit: "ns", Better: "lower", Kind: perLayer},
	{Name: "namespace.resolve_fresh_ns_per_op", Unit: "ns", Better: "lower", Kind: perLayer},
	{Name: "mds.serve_ns_per_op", Unit: "ns", Better: "lower", Kind: perLayer},
	{Name: "mds.end_epoch_us", Unit: "us", Better: "lower", Kind: perLayer},
	{Name: "trace.record_ns_per_op", Unit: "ns", Better: "lower", Kind: perLayer},
	{Name: "trace.record_fresh_ns_per_op", Unit: "ns", Better: "lower", Kind: perLayer},
	{Name: "client.cache_lookup_ns_per_op", Unit: "ns", Better: "lower", Kind: perLayer},
	{Name: "client.issue_ns_per_op", Unit: "ns", Better: "lower", Kind: perLayer},
	{Name: "tenant.take_ns_per_op", Unit: "ns", Better: "lower", Kind: perLayer},
	{Name: "replica.pump_us_per_tick", Unit: "us", Better: "lower", Kind: perLayer},
	{Name: "replica.reconcile_us", Unit: "us", Better: "lower", Kind: perLayer},
	{Name: "audit.check_partition_ms", Unit: "ms", Better: "lower", Kind: perLayer},
	{Name: "obs.jsonl_write_ns_per_event", Unit: "ns", Better: "lower", Kind: perLayer},
	{Name: "metrics.sample_tick_ns", Unit: "ns", Better: "lower", Kind: perLayer},
	{Name: "rng.uint64n_ns", Unit: "ns", Better: "lower", Kind: perLayer},
	{Name: "rng.zipf_next_ns", Unit: "ns", Better: "lower", Kind: perLayer},
}

// inBenchmarkJSON reports which list of the driver's BENCHMARK.json
// carries a metric. end_to_end takes the end-to-end metrics with a
// bound, which the driver requires on every workload and never 0; the
// unbounded three ride in per_layer, which tolerates a 0 on the
// workloads they do not apply to. A metric confined to a workload the
// driver does not run is in neither.
func (m metricDef) inBenchmarkJSON() (section string) {
	switch {
	case m.Name == opsFailedFrac:
		return ""
	case m.Only != "" && findWorkload(m.Only).ReportOnly:
		return ""
	case m.Kind == endToEnd && m.Bound > 0:
		return "end_to_end"
	default:
		return "per_layer"
	}
}

func metricsIn(section string) []metricDef {
	var out []metricDef
	for _, m := range registry {
		if m.inBenchmarkJSON() == section {
			out = append(out, m)
		}
	}
	return out
}
