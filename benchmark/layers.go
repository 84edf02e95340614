package main

import "repro/internal/stats"

// values maps a metric name to its measured value.
type values map[string]float64

func ms(ns int64) float64 { return float64(ns) / 1e6 }

func durationsMs(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = ms(s.dur())
	}
	return out
}

// inSituMetrics derives the per-layer numbers the traced run measured
// where the work happened: spans around Cluster.Step, Generator.Setup
// and Balancer.Rebalance, Go-runtime deltas over the window, and the
// simulator's own counters.
func inSituMetrics(tr *tracer, r *runResult, untracedWindowNs float64) values {
	v := values{}
	self := selfTimes(tr.spans)
	window := float64(r.windowNs())

	plain := tr.within(r.Window, "cluster.Step")
	epoch := tr.within(r.Window, "cluster.Step.epoch")
	plainMs := durationsMs(plain)
	p50 := stats.Percentile(plainMs, 0.5)
	v["cluster.tick_ms_p50"] = p50
	v["cluster.tick_ms_p99"] = stats.Percentile(plainMs, 0.99)
	v["cluster.epoch_tick_ms_p50"] = stats.Percentile(durationsMs(epoch), 0.5)
	// What closing epochs costs beyond a plain tick, as a share of the window.
	v["cluster.epoch_close_share"] = ratio(float64(totalDur(epoch))-p50*1e6*float64(len(epoch)), window)
	var stepSelf int64
	for _, s := range append(plain, epoch...) {
		stepSelf += self[s.ID]
	}
	v["cluster.step_self_share"] = ratio(float64(stepSelf), window)

	v["cluster.allocs_per_tick"] = ratio(float64(r.Host.Mallocs), float64(r.Ticks))
	v["cluster.alloc_bytes_per_op"] = ratio(float64(r.Host.AllocBytes), r.Ops)
	v["cluster.gc_cpu_frac"] = r.Host.GCCPUFrac
	v["cluster.heap_inuse_peak_mb"] = float64(r.Host.HeapInusePeak) / 1e6
	v["cluster.warmup_ms"] = ms(r.WarmupNs)
	v["cluster.tracing_overhead_frac"] = ratio(window, untracedWindowNs) - 1

	for _, s := range tr.spans {
		switch s.Name {
		case "cluster.New":
			v["cluster.new_self_ms"] = ms(self[s.ID])
		case "workload.Setup":
			v["workload.setup_ms"] = ms(s.dur())
		}
	}

	rebalances := tr.within(r.Window, "balancer.Rebalance")
	v["core.rebalances"] = float64(len(rebalances))
	v["core.rebalance_ms_per_epoch"] = ratio(ms(totalDur(rebalances)), float64(len(rebalances)))
	v["core.rebalance_share"] = ratio(float64(totalDur(rebalances)), window)

	countMetrics(v, r)
	return v
}

// countMetrics reads the exact counts through public accessors. They
// cover the whole run (warm-up included) and repeat exactly.
func countMetrics(v values, r *runResult) {
	c := r.Cluster
	rec := c.Metrics()
	kops := rec.TotalOps() / 1000
	ticks := float64(c.Tick())

	v["cluster.lease_serves_per_kop"] = ratio(float64(c.LeaseServes()), kops)
	v["cluster.promotions"] = float64(c.Promotions())
	v["cluster.scale_ups"] = float64(c.ScaleUps())

	var issued, stallTicks, retries int64
	for _, cl := range c.Clients() {
		issued += cl.Issued()
		stallTicks += cl.StallTicks()
		retries += cl.Retries()
	}
	v["workload.ops_drawn"] = float64(issued)
	v["client.stall_ticks_per_kop"] = ratio(float64(stallTicks), kops)
	v["client.retries"] = float64(retries)

	m := c.Migrator()
	v["mds.migrated_inodes"] = float64(m.MigratedInodes())
	v["mds.exports_completed"] = float64(m.CompletedTasks())
	v["mds.exports_aborted"] = float64(m.AbortedTasks())
	v["mds.exports_dropped"] = float64(m.DroppedTasks())
	v["mds.forwards_per_kop"] = ratio(rec.ForwardsTotal(), kops)
	var stalls int64
	for _, s := range c.Servers() {
		stalls += s.Stalls()
	}
	v["mds.stalls_per_kop"] = ratio(float64(stalls), kops)

	v["namespace.inodes"] = float64(c.Tree().NumInodes())
	v["namespace.partition_entries"] = float64(c.Partition().NumEntries())
	// Each version bump invalidates every resolver memo.
	v["namespace.partition_versions"] = float64(c.Partition().Version())

	if rep := c.Replicas(); rep != nil {
		v["replica.records_shipped"] = float64(rep.Records())
		v["replica.leases_granted"] = float64(rep.LeasesGranted())
		v["replica.leases_revoked"] = float64(rep.LeasesRevoked())
	}
	if tn := c.Tenancy(); tn != nil {
		var admitted, throttled int64
		for t := 0; t < tn.N(); t++ {
			admitted += tn.Admitted(t)
			throttled += tn.Throttled(t)
		}
		v["tenant.throttled_frac"] = ratio(float64(throttled), float64(admitted+throttled))
		v["tenant.max_debt"] = tn.MaxDebt()
	}
	v["metrics.batch_flushes"] = float64(rec.BatchFlushes())
	v["metrics.mean_batch_size"] = rec.MeanBatchSize()
	v["audit.passes"] = float64(c.Auditor().Passes())
	v["audit.violations"] = float64(len(c.Auditor().Violations()))
	v["obs.events_per_tick"] = ratio(float64(r.Events), ticks)
}
