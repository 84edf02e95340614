package main

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/elastic"
	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/replica"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// workloadDef is one named benchmark workload: a fixed cluster
// configuration, an untimed warm-up, and a timed window. All five are
// closed loops: a simulated client issues its next op only when the
// previous one completes.
type workloadDef struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json
	// carries the same text).
	Why string
	// Warmup ticks run before the window and count as set-up; Ticks is
	// the timed window. ToCompletion runs until every client finishes
	// instead: Ticks is then the cap, and ops stranded at it are failures.
	Warmup, Ticks int64
	ToCompletion  bool
	// RecoverAt, when positive, is the tick at which the harness
	// recovers every down rank (the crash itself is in Config.Faults).
	RecoverAt int64
	// Events attaches an obs.Bus writing JSONL to io.Discard.
	Events bool
	// ReportOnly keeps the workload out of BENCHMARK.json: the report
	// of this command measures it, the automated driver does not gate it.
	ReportOnly bool
	// Config builds a fresh configuration: balancers and attachments
	// are stateful, so every run needs its own.
	Config func(seed uint64) cluster.Config
}

// Windows are sized to about 2.5 s (3.7 s for mixed_rebalance) on the
// 2-core reference host, so that a 20 s driver run fits two repeats at
// each of four seeds;
// see README.md for how they relate to the longer windows of the issue
// that defined this benchmark.
var workloads = []workloadDef{
	{
		Name:   "zipf_read",
		Why:    "Feature-off read floor: every op is a resolver memo hit, a FragKey-hashed heat/trace bump and a client cache probe; balancer and subsystems idle.",
		Warmup: 100, Ticks: 600,
		Config: func(seed uint64) cluster.Config {
			return cluster.Config{MDS: 4, Clients: 64, ClientRate: 150, Seed: seed, Workers: 1,
				Balancer: experiment.MakeBalancer("Lunule"), Workload: zipfGen()}
		},
	},
	{
		Name:   "mdtest_create",
		Why:    "Same namespace/resolver layer used for writes: inode arena, Tree.Adopt, Resolver.grow regrowth and GC; a read-path gain that costs creates shows here.",
		Warmup: 50, Ticks: 200,
		Config: func(seed uint64) cluster.Config {
			return cluster.Config{MDS: 4, Clients: 64, ClientRate: 150, Seed: seed, Workers: 1,
				Balancer: experiment.MakeBalancer("Lunule"),
				Workload: workload.NewMD(workload.MDConfig{CreatesPerClient: 1 << 30, DirsPerClient: 4, StatEvery: 64})}
		},
	},
	{
		Name:  "mixed_rebalance",
		Why:   "Paper 4.4 mix (CNN+NLP+Web+Zipf) run to completion: the only workload where core, balancer, migrator, forwards and first-visit scans do real work and jobs finish.",
		Ticks: 4000, ToCompletion: true,
		Config: func(seed uint64) cluster.Config {
			return cluster.Config{MDS: 5, Clients: 100, ClientRate: 150, Seed: seed, Workers: 1,
				Balancer: experiment.MakeBalancer("Lunule"), Workload: experiment.MakeWorkload("Mixed", 2)}
		},
	},
	{
		Name:  "full_stack",
		Why:   "Every nil-disabled subsystem attached and active on the write-back engine (batching, replicas+leases, tenants, elastic, a crash, audit, obs): prices the one-engine refactor.",
		Ticks: 400, RecoverAt: 260, Events: true,
		Config: func(seed uint64) cluster.Config {
			ep := elastic.DefaultPolicy()
			ep.MinRanks, ep.MaxRanks = 8, 16
			faults := &fault.Schedule{}
			faults.CrashHottest(120)
			return cluster.Config{MDS: 8, Clients: 64, ClientRate: 150, Seed: seed, Workers: 1,
				Balancer:    experiment.MakeBalancer("Lunule"),
				Workload:    tenantMix(),
				Batching:    &cluster.BatchingConfig{BatchSize: 32, FlushEvery: 4},
				Replication: replica.MustManager(fullStackReplicas()),
				Tenancy:     tenant.MustManager(fullStackTenants()),
				Elastic:     elastic.MustController(ep),
				Faults:      faults,
				Audit:       audit.New(audit.Options{}),
			}
		},
	},
	{
		Name:   "wide_parallel",
		Why:    "Scale axis: 64 ranks, 256 clients, Workers 2; the only workload where goroutine fan-out, lane merge and barrier do work. Serial-path changes must not move it.",
		Warmup: 150, Ticks: 150,
		// Two workers need both cores of the reference host at once, so
		// whatever else the shared host runs is in the number: one other
		// busy process costs it 18%, and ten driver runs of the same code
		// spread 35-41% of their median, past any bound the driver allows.
		// Compare commits on it in alternating pairs by hand.
		ReportOnly: true,
		Config: func(seed uint64) cluster.Config {
			return cluster.Config{MDS: 64, Clients: 256, ClientRate: 150, Seed: seed, Workers: 2,
				Balancer: experiment.MakeBalancer("Lunule"), Workload: zipfGen()}
		},
	},
}

// fullStackReplicas is R=3 warm standbys doubling as 40-tick read leases.
func fullStackReplicas() replica.Policy {
	p := replica.DefaultPolicy()
	p.R, p.LeaseTicks, p.ReplicateReadFrac = 3, 40, 0.75
	return p
}

// fullStackTenants is contended flat buckets: the big tenants throttle
// every tick, so admission takes the path it takes under load.
func fullStackTenants() tenant.Policy {
	p := tenant.DefaultPolicy()
	p.Rate, p.Burst = 1500, 3000
	return p
}

func zipfGen() workload.Generator {
	return workload.NewZipf(workload.ZipfConfig{FilesPerClient: 500, OpsPerClient: 1 << 30})
}

// tenantMix is the tickbench "tenant" workload: four Zipf-sized tenants
// running zipf reads, mdtest creates and a read storm with writes.
func tenantMix() workload.Generator {
	return workload.NewTenants(workload.TenantsConfig{Tenants: 4, Skew: 1.0},
		func(t, clients, off int) workload.Generator {
			dir := fmt.Sprintf("/tenant%02d", t)
			switch t % 3 {
			case 0:
				return workload.NewZipf(workload.ZipfConfig{Dir: dir + "/zipf", ClientOffset: off,
					FilesPerClient: 500, OpsPerClient: 1 << 30})
			case 1:
				return workload.NewMD(workload.MDConfig{Dir: dir + "/md", ClientOffset: off,
					CreatesPerClient: 1 << 30})
			default:
				return workload.NewReadStorm(workload.ReadStormConfig{Dir: dir + "/storm", ClientOffset: off,
					WriteEvery: 50, OpsPerClient: 1 << 30})
			}
		})
}
