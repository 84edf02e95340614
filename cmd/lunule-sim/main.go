// Command lunule-sim runs a single simulated CephFS metadata cluster
// with a chosen workload and balancer and prints its dynamics: per-MDS
// throughput, imbalance-factor series, migration counts, and job
// completion times. With -trace-out it also emits a structured JSONL
// event trace (epochs, migrations, faults, backoff transitions), and
// with -cpuprofile / -memprofile it writes Go profiles.
//
//	lunule-sim -workload zipf -balancer lunule -mds 5 -clients 40
//	lunule-sim -crash 100:hot -trace-out run.jsonl -trace-events migration_aborted,orphan_takeover
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/elastic"
	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/rng"
	"repro/internal/tenant"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command behind a testable seam: flags in, exit code
// out, everything printed to the supplied writers.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lunule-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wl        = fs.String("workload", "Zipf", "workload: CNN, NLP, Web, Zipf, MD, Mixed, ReadStorm")
		bal       = fs.String("balancer", "Lunule", "balancer: Vanilla, GreedySpill, Lunule-Light, Lunule, Dir-Hash")
		mdsN      = fs.Int("mds", 5, "number of metadata servers")
		clients   = fs.Int("clients", 40, "number of clients")
		rate      = fs.Float64("rate", 150, "client op rate (ops per second)")
		capacity  = fs.Int("capacity", 2000, "per-MDS capacity (ops per second)")
		scale     = fs.Float64("scale", 1.0, "workload scale factor")
		seed      = fs.Uint64("seed", 42, "random seed")
		ticks     = fs.Int64("maxticks", 6000, "simulated-tick budget")
		data      = fs.Bool("data", false, "enable the OSD data path: 6 OSDs x 64 MiB per tick")
		csvPath   = fs.String("csv", "", "write per-tick series to this CSV file")
		ifCSV     = fs.String("ifcsv", "", "write the per-epoch imbalance series to this CSV file")
		traceFile = fs.String("tracefile", "", "replay this op trace instead of a synthetic workload (see lunule-trace -export)")
		pins      = fs.String("pin", "", "comma-separated static subtree pins, e.g. /zipf/client000=1,/web=2 (ceph.dir.pin)")
		crashes   = fs.String("crash", "", "comma-separated MDS crashes as tick:rank (rank 'hot' = hottest live rank, or a /path = whichever rank governs the path at the crash tick), e.g. 100:1,400:hot,600:/zipf/client000")
		recovers  = fs.String("recover", "", "comma-separated MDS recoveries as tick:rank, e.g. 300:1")
		mtbf      = fs.Float64("mtbf", 0, "random failures: mean ticks between failures per rank (0 = off)")
		mttr      = fs.Float64("mttr", 0, "random failures: mean ticks to repair (default mtbf/10)")
		recoveryT = fs.Int("recoveryticks", 20, "failover takeover latency window in ticks")
		auditOn   = fs.Bool("audit", false, "validate cross-module invariants at every epoch; violations fail the run")
		auditTick = fs.Bool("audit-every-tick", false, "with -audit, run the invariant checks every tick instead of every epoch")

		batchSize  = fs.Int("batch-size", 0, "write-back client batching: ops per flushed batch and per server commit group (0 = synchronous per-op path)")
		flushEvery = fs.Int64("flush-every", 4, "with -batch-size, flush a buffered run after this many ticks even if short")

		replicationR  = fs.Int("replication", 1, "subtree replication factor R: 1 = off (cold takeover only), >=2 keeps R-1 warm standbys per subtree")
		leaseTicks    = fs.Int64("lease-ticks", 0, "with -replication >= 2, grant read leases on hot read-dominated subtrees' synced standbys for this many ticks (0 = off); holders serve reads, writes invalidate")
		leaseReadFrac = fs.Float64("replicate-read-frac", 0.75, "with -lease-ticks, minimum read fraction of a subtree's heat before it is replicated instead of migrated")

		tenants     = fs.Int("tenants", 0, "partition clients into this many tenants (each runs its own generator in its own subtree, overriding -workload) with per-tenant token-bucket admission (0 = off)")
		tenantRate  = fs.Float64("tenant-rate", 4000, "with -tenants, per-tenant bucket refill in ops per tick")
		tenantBurst = fs.Float64("tenant-burst", 8000, "with -tenants, per-tenant bucket capacity in ops")
		tenantSkew  = fs.Float64("tenant-skew", 1.0, "with -tenants, Zipf exponent of the tenant-size distribution (0 = equal shares)")

		elasticOn  = fs.Bool("elastic", false, "enable the MDS autoscaler: grow by 2 ranks at 75% utilization, drain one rank at a time below 35% (-mds is the starting size)")
		elasticMin = fs.Int("elastic-min", 0, "with -elastic, rank floor (default: the starting -mds count)")
		elasticMax = fs.Int("elastic-max", 0, "with -elastic, rank ceiling (default: 2x the floor)")

		traceOut   = fs.String("trace-out", "", "write a structured JSONL event trace to this file")
		traceEvs   = fs.String("trace-events", "", "comma-separated event types to trace (empty or 'all' = everything; see EXPERIMENTS.md)")
		traceSum   = fs.Bool("trace-summary", false, "print per-type event counts after the run")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "error: %v\n", err)
		return 1
	}

	// A numeric flag outside its domain would otherwise be replaced by a
	// default or turn its feature off without a word.
	for _, d := range []struct {
		flag, domain string
		ok           bool
	}{
		{"mds", ">= 1", *mdsN >= 1},
		{"clients", ">= 1", *clients >= 1},
		{"rate", "> 0", *rate > 0},
		{"capacity", ">= 1", *capacity >= 1},
		{"maxticks", ">= 0", *ticks >= 0},
		{"mtbf", ">= 0", *mtbf >= 0},
		{"mttr", ">= 0", *mttr >= 0},
		{"recoveryticks", ">= 1", *recoveryT >= 1},
		{"batch-size", ">= 0", *batchSize >= 0},
		{"flush-every", ">= 1", *flushEvery >= 1},
		{"replication", ">= 1", *replicationR >= 1},
		{"tenants", ">= 0", *tenants >= 0},
		{"tenant-skew", ">= 0", *tenantSkew >= 0},
		{"elastic-min", ">= 0", *elasticMin >= 0},
		{"elastic-max", ">= 0", *elasticMax >= 0},
	} {
		if !d.ok {
			return fail(fmt.Errorf("-%s must be %s, got %s", d.flag, d.domain, fs.Lookup(d.flag).Value))
		}
	}

	// A dependent flag counts as given when it was set, whatever its
	// value: each row names the flags and what they need, or what they
	// cannot be combined with.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, d := range []struct {
		flags []string
		rule  string
		ok    bool
	}{
		{[]string{"mttr"}, "needs -mtbf", *mtbf > 0},
		{[]string{"audit-every-tick"}, "needs -audit", *auditOn},
		{[]string{"flush-every"}, "needs -batch-size", *batchSize > 0},
		{[]string{"lease-ticks"}, "needs -replication >= 2", *replicationR > 1},
		{[]string{"replicate-read-frac"}, "needs -lease-ticks", *leaseTicks > 0},
		{[]string{"tenant-rate", "tenant-burst", "tenant-skew"}, "needs -tenants", *tenants > 0},
		{[]string{"elastic-min", "elastic-max"}, "needs -elastic", *elasticOn},
		{[]string{"trace-events"}, "needs -trace-out or -trace-summary", *traceOut != "" || *traceSum},
		// A trace fixes its own clients and ops.
		{[]string{"clients", "workload", "scale", "tenants"}, "cannot be combined with -tracefile", *traceFile == ""},
	} {
		for _, f := range d.flags {
			if set[f] && !d.ok {
				return fail(fmt.Errorf("-%s %s", f, d.rule))
			}
		}
	}

	// The experiment constructors panic on a name or scale they do not
	// know; flags are outside input, so they are checked here first.
	name, err := experiment.WorkloadName(*wl)
	if err != nil {
		return fail(err)
	}
	balName, err := experiment.BalancerName(*bal)
	if err != nil {
		return fail(err)
	}
	if err := experiment.CheckScale(*scale); err != nil {
		return fail(err)
	}
	var gen workload.Generator
	nClients := *clients
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			return fail(err)
		}
		tf, err := workload.ParseTrace(f)
		f.Close()
		if err != nil {
			return fail(err)
		}
		gen = tf
		nClients = tf.Clients()
		name = "Trace(" + *traceFile + ")"
	} else {
		gen = experiment.MakeWorkload(name, *scale)
	}
	var tenancy *tenant.Manager
	if *tenants > 0 {
		pol := tenant.DefaultPolicy()
		pol.Rate = *tenantRate
		pol.Burst = *tenantBurst
		var err error
		tenancy, err = tenant.NewManager(pol)
		if err != nil {
			return fail(err)
		}
		gen = workload.DefaultTenants(*tenants, *tenantSkew)
		name = gen.Name()
	}
	faults, err := buildFaults(*crashes, *recovers, *mtbf, *mttr, *mdsN, *ticks, *seed)
	if err != nil {
		return fail(err)
	}
	var auditor *audit.Auditor
	if *auditOn {
		auditor = audit.New(audit.Options{EveryTick: *auditTick})
	}

	var batching *cluster.BatchingConfig
	if *batchSize > 0 {
		batching = &cluster.BatchingConfig{BatchSize: *batchSize, FlushEvery: *flushEvery}
	}

	var rep *replica.Manager
	if *replicationR > 1 {
		pol := replica.DefaultPolicy()
		pol.R = *replicationR
		pol.LeaseTicks = *leaseTicks
		if *leaseTicks > 0 {
			pol.ReplicateReadFrac = *leaseReadFrac
		}
		var err error
		rep, err = replica.NewManager(pol)
		if err != nil {
			return fail(err)
		}
	}

	var controller *elastic.Controller
	if *elasticOn {
		policy := elastic.DefaultPolicy()
		policy.MinRanks = *mdsN
		if *elasticMin > 0 {
			policy.MinRanks = *elasticMin
		}
		policy.MaxRanks = 2 * policy.MinRanks
		if *elasticMax > 0 {
			policy.MaxRanks = *elasticMax
		}
		var err error
		controller, err = elastic.NewController(policy)
		if err != nil {
			return fail(err)
		}
	}

	// Observability wiring. The bus is nil unless a sink was requested,
	// so an untraced run pays only nil-checks at the emit sites.
	var (
		bus     *obs.Bus
		sinks   []obs.Sink
		jsonl   *obs.JSONL
		summary *obs.Summary
	)
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return fail(err)
		}
		jsonl = obs.NewJSONLFile(f)
		sinks = append(sinks, jsonl)
	}
	if *traceSum {
		summary = obs.NewSummary()
		sinks = append(sinks, summary)
	}
	if len(sinks) > 0 {
		types, err := obs.ParseTypes(*traceEvs)
		if err != nil {
			return fail(err)
		}
		bus = obs.NewBus(sinks...)
		bus.Allow(types...)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	var dataBandwidth int64
	if *data {
		dataBandwidth = 6 * (64 << 20) // 6 OSDs x 64 MiB per tick
	}
	c, err := cluster.New(cluster.Config{
		MDS:           *mdsN,
		Capacity:      *capacity,
		Clients:       nClients,
		ClientRate:    *rate,
		DataBandwidth: dataBandwidth,
		Seed:          *seed,
		Balancer:      experiment.MakeBalancer(balName),
		Workload:      gen,
		RecoveryTicks: *recoveryT,
		Faults:        faults,
		Bus:           bus,
		Audit:         auditor,
		Elastic:       controller,
		Replication:   rep,
		Batching:      batching,
		Tenancy:       tenancy,
	})
	if err != nil {
		return fail(err)
	}
	if *pins != "" {
		for _, spec := range strings.Split(*pins, ",") {
			parts := strings.SplitN(strings.TrimSpace(spec), "=", 2)
			if len(parts) != 2 {
				return fail(fmt.Errorf("bad pin %q (want path=rank)", spec))
			}
			rank, err := strconv.Atoi(parts[1])
			if err != nil {
				return fail(fmt.Errorf("bad pin rank %q", parts[1]))
			}
			if err := c.PinPath(parts[0], rank); err != nil {
				return fail(err)
			}
		}
	}
	end := c.RunUntilDone(*ticks)
	if controller != nil {
		// Let in-flight drains finish and the idle cluster shrink back
		// to its floor, so the run ends with a settled fleet.
		end = c.SettleDrains(3000)
	}
	rec := c.Metrics()
	if err := bus.Close(); err != nil {
		return fail(err)
	}

	fmt.Fprintf(stdout, "workload=%s balancer=%s mds=%d clients=%d ended at tick %d (all done: %v)\n\n",
		name, *bal, *mdsN, nClients, end, c.Done())
	tbl := &metrics.Table{Header: []string{"metric", "value"}}
	tbl.Add("mean imbalance factor", fmt.Sprintf("%.3f", rec.MeanIF()))
	tbl.Add("peak aggregate IOPS", fmt.Sprintf("%.0f", rec.PeakThroughput(10)))
	tbl.Add("mean aggregate IOPS", fmt.Sprintf("%.0f", rec.MeanThroughput()))
	tbl.Add("migrated inodes", fmt.Sprintf("%.0f", rec.MigratedTotal()))
	tbl.Add("inter-MDS forwards", fmt.Sprintf("%.0f", rec.ForwardsTotal()))
	tbl.Add("op latency mean / p99 (ticks)", fmt.Sprintf("%.2f / %.0f", rec.MeanLatency(), rec.LatencyQuantile(0.99)))
	jcts := rec.JCTQuantiles(0.5, 0.99)
	tbl.Add("JCT p50 / p99 (ticks)", fmt.Sprintf("%.0f / %.0f", jcts[0], jcts[1]))
	tbl.Add("subtree entries", fmt.Sprintf("%d", c.Partition().NumEntries()))
	if faults != nil && !faults.Empty() {
		var retries, crashN int64
		for _, cl := range c.Clients() {
			retries += cl.Retries()
		}
		for _, s := range c.Servers() {
			crashN += s.Crashes()
		}
		tbl.Add("MDS crashes", fmt.Sprintf("%d", crashN))
		tbl.Add("ops stalled on down ranks", fmt.Sprintf("%.0f", rec.StalledDownTotal()))
		tbl.Add("exports aborted by crashes", fmt.Sprintf("%.0f", rec.AbortedTotal()))
		tbl.Add("client retries (backoff)", fmt.Sprintf("%d", retries))
		tbl.Add("orphaned rank-ticks", fmt.Sprintf("%.0f", rec.RecoveryTicksTotal()))
		tbl.Add("mean ticks to reassign", fmt.Sprintf("%.1f", rec.MeanTicksToReassign()))
		if down := c.DownRanks(); len(down) > 0 {
			tbl.Add("still down at end", fmt.Sprint(down))
		}
	}
	if batching != nil {
		tbl.Add("write-back batching", fmt.Sprintf("B=%d flush-every=%d", batching.BatchSize, batching.FlushEvery))
		tbl.Add("batches flushed / committed", fmt.Sprintf("%d / %d", rec.BatchFlushes(), rec.BatchCommits()))
		tbl.Add("batch size mean / p90", fmt.Sprintf("%.1f / %.0f", rec.MeanBatchSize(), rec.BatchSizeQuantile(0.9)))
		tbl.Add("flush latency p50 / p99 (ticks)", fmt.Sprintf("%.0f / %.0f", rec.FlushAgeQuantile(0.5), rec.FlushAgeQuantile(0.99)))
		if rq := rec.BatchRequeues(); rq > 0 {
			tbl.Add("batches re-queued by crashes", fmt.Sprintf("%d", rq))
		}
	}
	if tn := c.Tenancy(); tn != nil {
		tbl.Add("tenant admission", fmt.Sprintf("%d tenants, rate=%.0f burst=%.0f ops", tn.N(), *tenantRate, *tenantBurst))
		for t := 0; t < tn.N(); t++ {
			tbl.Add(fmt.Sprintf("tenant %d (%d clients)", t, tn.Clients(t)),
				fmt.Sprintf("jct p50 %.0f, lat mean/p99 %.2f/%.0f, admitted %d, throttled %d, stalled %d",
					rec.TenantJCTQuantile(t, 0.5), rec.TenantMeanLatency(t),
					rec.TenantLatencyQuantile(t, 0.99),
					tn.Admitted(t), tn.Throttled(t), tn.Stalled(t)))
		}
	}
	if rep != nil {
		tbl.Add("replication factor", fmt.Sprintf("R=%d (%d groups)", rep.Policy().R, rep.Groups()))
		tbl.Add("warm promotions", fmt.Sprintf("%d (warm recoveries: %d)", c.Promotions(), rec.WarmRecoveries()))
		tbl.Add("resyncs started / done", fmt.Sprintf("%d / %d", rep.ResyncsStarted(), rep.ResyncsDone()))
		tbl.Add("journal records / max lag", fmt.Sprintf("%d / %d", rep.Records(), rep.MaxLag()))
		if rep.Policy().LeaseTicks > 0 {
			tbl.Add("read leases", fmt.Sprintf("term=%d ticks, read-frac>=%.2f", rep.Policy().LeaseTicks, rep.Policy().ReplicateReadFrac))
			tbl.Add("lease serves (by holders)", fmt.Sprintf("%d", c.LeaseServes()))
			tbl.Add("leases granted / revoked / expired",
				fmt.Sprintf("%d / %d / %d", rep.LeasesGranted(), rep.LeasesRevoked(), rep.LeasesExpired()))
		}
	}
	if controller != nil {
		tbl.Add("scale-ups applied", fmt.Sprintf("%d", c.ScaleUps()))
		tbl.Add("drains completed", fmt.Sprintf("%d", c.DrainsDone()))
		tbl.Add("serving ranks at end", fmt.Sprintf("%d (of %d ever)", c.ServingRanks(), len(c.Servers())))
		tbl.Add("rank-epochs billed", fmt.Sprintf("%d", c.RankEpochs()))
		if dr := c.DrainingRanks(); len(dr) > 0 {
			tbl.Add("still draining at end", fmt.Sprint(dr))
		}
	}
	if auditor != nil {
		tbl.Add("audit passes / violations",
			fmt.Sprintf("%d / %d", auditor.Passes(), len(auditor.Violations())))
	}
	if jsonl != nil {
		tbl.Add("trace events written", fmt.Sprintf("%d", jsonl.Count()))
	}
	fmt.Fprint(stdout, tbl.String())

	fmt.Fprintln(stdout, "\nimbalance factor over time:")
	fmt.Fprintf(stdout, "  %s  %s\n", metrics.Sparkline(&rec.IF, 40), metrics.FormatSeries(&rec.IF, 8))
	fmt.Fprintln(stdout, "per-MDS IOPS over time (shared scale):")
	maxIOPS := 0.0
	for _, s := range rec.PerMDS {
		if m := s.MaxValue(); m > maxIOPS {
			maxIOPS = m
		}
	}
	for i, s := range rec.PerMDS {
		fmt.Fprintf(stdout, "  MDS-%d %s  %s\n", i+1,
			metrics.SparklineScaled(s, 40, maxIOPS), metrics.FormatSeries(s, 8))
	}
	fmt.Fprintln(stdout, "aggregate IOPS over time:")
	fmt.Fprintf(stdout, "  %s\n", metrics.Sparkline(&rec.Agg, 40))

	if summary != nil {
		fmt.Fprintln(stdout, "\ntrace event counts:")
		fmt.Fprint(stdout, summary.String())
	}
	if *traceOut != "" {
		fmt.Fprintf(stdout, "\ntrace written to %s\n", *traceOut)
	}
	if *csvPath != "" {
		if err := writeCSV(*csvPath, rec.WriteCSV); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "\nper-tick series written to %s\n", *csvPath)
	}
	if *ifCSV != "" {
		if err := writeCSV(*ifCSV, rec.WriteEpochCSV); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "imbalance series written to %s\n", *ifCSV)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fail(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "heap profile written to %s\n", *memProfile)
	}
	if vs := auditor.Violations(); len(vs) > 0 {
		for _, v := range vs {
			fmt.Fprintf(stderr, "audit violation: %s\n", v)
		}
		return fail(auditor.Err())
	}
	return 0
}

// buildFaults combines the scripted -crash/-recover specs with the
// random -mtbf mode into one validated schedule (nil when no fault
// flags were given).
func buildFaults(crashes, recovers string, mtbf, mttr float64, mdsN int, horizon int64, seed uint64) (*fault.Schedule, error) {
	sched, err := fault.ParseSpecs(crashes, fault.Crash)
	if err != nil {
		return nil, err
	}
	recs, err := fault.ParseSpecs(recovers, fault.Recover)
	if err != nil {
		return nil, err
	}
	sched.Merge(recs)
	for _, f := range []struct {
		name string
		v    float64
	}{{"mtbf", mtbf}, {"mttr", mttr}} {
		if !(math.Abs(f.v) <= math.MaxFloat64) {
			return nil, fmt.Errorf("-%s must be finite, got %v", f.name, f.v)
		}
	}
	if mtbf > 0 {
		sched.Merge(fault.MTBF(fault.MTBFConfig{
			Ranks:   mdsN,
			MTBF:    mtbf,
			MTTR:    mttr,
			Horizon: horizon,
		}, rng.New(seed).Fork(99)))
	}
	if sched.Empty() {
		return nil, nil
	}
	if err := sched.Validate(mdsN); err != nil {
		return nil, err
	}
	return &sched, nil
}

func writeCSV(path string, emit func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
