package cluster

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"repro/internal/elastic"
	"repro/internal/fault"
	"repro/internal/namespace"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/simtest"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// scenario is one seeded configuration run through runScenario: a row
// of the byte-identity table below, or a one-off run of a test.
type scenario struct {
	name string
	// config mutates the config before the cluster is built and returns
	// an optional post-construction hook.
	config func(*Config) func(*Cluster)
	// drive runs the built cluster; nil runs it to completion.
	drive func(*testing.T, *run)
	// check asserts what the row is listed for, on its pinned run.
	check func(*testing.T, *run)
	// skip gives, per axis name, why the axis does not apply to the row
	// beyond what the axis itself rules out.
	skip map[string]string
	// entries names, per axis name, the test that runs the axis on this
	// row when it is not the axis's own entry test.
	entries map[string]string
}

// run is one scenario run: the config it was built from, the cluster
// after its drive, and the run's complete externally visible output.
type run struct {
	cfg        Config
	c          *Cluster
	csv, trace []byte       // per-tick then per-epoch CSV; JSONL events
	st         carriedStats // filled by the stepWindows drive
}

// runScenario builds sc's config, applies the axis (nil: none), drives
// the run and returns it with its per-tick and per-epoch CSVs and its
// JSONL event trace.
func runScenario(t *testing.T, sc scenario, ax *axis) *run {
	t.Helper()
	var tr bytes.Buffer
	sink := obs.NewJSONL(&tr)
	r := &run{cfg: Config{Bus: obs.NewBus(sink)}}
	after := sc.config(&r.cfg)
	if ax != nil && ax.apply != nil {
		ax.apply(&r.cfg)
	}
	r.c = newTestCluster(t, r.cfg)
	if after != nil {
		after(r.c)
	}
	if ax != nil && ax.build != nil {
		ax.build(r.c)
	}
	if sc.drive != nil {
		sc.drive(t, r)
	} else {
		r.c.RunUntilDone(30000)
	}
	if !r.c.Done() {
		t.Fatal("clients must finish")
	}
	var csv bytes.Buffer
	if err := r.c.Metrics().WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if err := r.c.Metrics().WriteEpochCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	r.csv, r.trace = csv.Bytes(), tr.Bytes()
	return r
}

// output is the run's CSVs, then its trace unless csvOnly.
func (r *run) output(csvOnly bool) []byte {
	if csvOnly {
		return r.csv
	}
	return append(append([]byte(nil), r.csv...), r.trace...)
}

func digest(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

// diffEngineOutputs fails with the first diverging byte in context.
func diffEngineOutputs(t *testing.T, name string, want, got []byte) {
	t.Helper()
	if bytes.Equal(want, got) {
		return
	}
	i := 0
	for i < len(want) && i < len(got) && want[i] == got[i] {
		i++
	}
	lo := i - 80
	if lo < 0 {
		lo = 0
	}
	t.Fatalf("%s diverges at byte %d:\nwant: %q\ngot:  %q",
		name, i, want[lo:min(i+80, len(want))], got[lo:min(i+80, len(got))])
}

// scenarios is the byte-identity table. Each row's output is pinned in
// testdata/digests.txt under its name; rows named saturated/... run
// with rank capacity far below demand under the carried-plan oracle
// and are pinned by TestCarriedPlanMatchesFresh, the rest by
// TestParallelEngineDifferential. identity_test.go runs every axis on
// every row it applies to.
var scenarios = []scenario{
	{name: "failover", config: func(cfg *Config) func(*Cluster) {
		var sched fault.Schedule
		sched.Crash(40, 0).Recover(110, 0).Crash(160, 3).Recover(230, 3)
		cfg.MDS = 16
		cfg.Clients = 24
		cfg.Seed = 11
		cfg.RecoveryTicks = 12
		cfg.Faults = &sched
		cfg.Workload = failoverZipf()
		return nil
	}, check: func(t *testing.T, r *run) {
		if r.c.Metrics().MigratedTotal() == 0 {
			t.Error("schedule produced no migrations: no export invalidated a resolution")
		}
	}},
	{name: "elastic", config: func(cfg *Config) func(*Cluster) {
		cfg.MDS = 4
		cfg.Clients = 16
		cfg.Seed = 11
		cfg.Capacity = 1000
		cfg.Workload = failoverZipf()
		return func(c *Cluster) {
			c.ScheduleAddMDS(55, 1)
			c.events.schedule(120, func() { c.StartDrain(1) })
		}
	}},
	{name: "replication", config: func(cfg *Config) func(*Cluster) {
		var sched fault.Schedule
		sched.Crash(60, 1).Recover(140, 1)
		cfg.MDS = 4
		cfg.Clients = 16
		cfg.Seed = 11
		cfg.RecoveryTicks = 25
		cfg.Faults = &sched
		cfg.Workload = failoverZipf()
		cfg.Replication = replica.MustManager(replica.DefaultPolicy())
		return nil
	}, skip: map[string]string{"leases-idle": readOnlyLeases}},
	{name: "batched", config: func(cfg *Config) func(*Cluster) {
		// Write-back mode with a mid-run crash: flush/admit ordering,
		// batch serve rounds, and the crash-requeue sweep.
		var sched fault.Schedule
		sched.Crash(50, 2).Recover(120, 2)
		cfg.MDS = 4
		cfg.Clients = 16
		cfg.Seed = 11
		cfg.RecoveryTicks = 12
		cfg.Faults = &sched
		cfg.Workload = failoverZipf()
		cfg.Batching = &BatchingConfig{BatchSize: 8, FlushEvery: 4}
		return nil
	}},
	{name: "leases", config: func(cfg *Config) func(*Cluster) {
		// Lease-served read storm with writes mixed in and a holder-rank
		// crash mid-run: lease routing, the inode-sticky holder spread,
		// write revokes where writes are served, carve heat seeding, and
		// crash-driven lease pruning.
		var sched fault.Schedule
		sched.Crash(30, 2).Recover(70, 2)
		cfg.MDS = 5
		cfg.Clients = 16
		cfg.Seed = 11
		cfg.RecoveryTicks = 12
		cfg.Faults = &sched
		cfg.Workload = workload.NewReadStorm(workload.ReadStormConfig{
			Files:        300,
			OpsPerClient: 8000,
			WriteEvery:   40,
		})
		pol := replica.DefaultPolicy()
		pol.R = 4
		pol.LeaseTicks = 30
		pol.ReplicateReadFrac = 0.6
		cfg.Replication = replica.MustManager(pol)
		return nil
	}},
	{name: "leases-drain", config: leasesDrainScenario},
	{name: "tenants", config: func(cfg *Config) func(*Cluster) {
		// Skewed multi-tenant mix under contended token buckets with a
		// mid-run crash: bucket admission, per-tenant served counts and
		// latency, throttle events, and the per-tenant heat and debt
		// bookkeeping. The policy is tight enough that the big tenants
		// throttle every epoch.
		var sched fault.Schedule
		sched.Crash(50, 1).Recover(120, 1)
		cfg.MDS = 4
		cfg.Clients = 16
		cfg.Seed = 11
		cfg.RecoveryTicks = 12
		cfg.Faults = &sched
		cfg.Workload = workload.DefaultTenants(4, 1.0)
		pol := tenant.DefaultPolicy()
		pol.Rate, pol.Burst = 400, 800
		cfg.Tenancy = tenant.MustManager(pol)
		return nil
	}},
	{name: "wb-tenants-data", config: func(cfg *Config) func(*Cluster) {
		// Write-back under contended token buckets, a starved data path,
		// rank pools well short of demand and a crash of the rank that
		// starts with the whole namespace: walks the shared
		// gate (debt, backoff), the bucket grant/refund arithmetic, the
		// debt path and the crash-requeue sweep together.
		// TestWriteBackAdmissionLive runs it with smaller pools still.
		var sched fault.Schedule
		sched.Crash(50, 0).Recover(120, 0)
		cfg.MDS = 4
		cfg.Clients = 16
		cfg.Seed = 11
		cfg.Capacity = 60
		cfg.RecoveryTicks = 12
		cfg.Faults = &sched
		cfg.Workload = workload.NewTenants(workload.TenantsConfig{Tenants: 4, Skew: 1},
			func(t, clients, off int) workload.Generator {
				dir := fmt.Sprintf("/t%d", t)
				switch t % 3 {
				case 0:
					return workload.NewZipf(workload.ZipfConfig{Dir: dir, ClientOffset: off, FilesPerClient: 100, OpsPerClient: 300})
				case 1:
					return workload.NewMD(workload.MDConfig{Dir: dir, ClientOffset: off, CreatesPerClient: 3000, DirsPerClient: 2, StatEvery: 16})
				default:
					return workload.NewReadStorm(workload.ReadStormConfig{Dir: dir + "/storm", ClientOffset: off, Files: 300, OpsPerClient: 3000, WriteEvery: 50})
				}
			})
		pol := tenant.DefaultPolicy()
		pol.Rate, pol.Burst = 200, 400
		cfg.Tenancy = tenant.MustManager(pol)
		cfg.Batching = &BatchingConfig{BatchSize: 8, FlushEvery: 4}
		cfg.DataBandwidth = 48 << 10
		return nil
	}},
	// Every created name created twice (see dupCreates): a create served
	// after its name was linked, two creates of one name at one rank and
	// round, and a name-hash collision between two creates.
	{name: "dup-creates", config: dupCreateScenario(nil)},
	{name: "wb-dup-creates", config: dupCreateScenario(&BatchingConfig{BatchSize: 8, FlushEvery: 2})},
	// Autoscaled: demand far above four ranks' capacity so the controller
	// must grow, then idle once the workload drains so it must shrink
	// back to the floor.
	{name: "elastic-scale-cycle", config: func(cfg *Config) func(*Cluster) {
		cfg.MDS, cfg.Capacity, cfg.Clients = 4, 500, 24
		cfg.Workload = failoverZipf()
		cfg.Elastic = elastic.MustController(elasticPolicy())
		return nil
	}, drive: func(t *testing.T, r *run) {
		r.c.RunUntilDone(30000)
		r.c.SettleDrains(3000)
	}, check: checkScaleCycle, entries: map[string]string{
		"rerun": "TestElasticDeterministic",
		"audit": "TestElasticScaleCycleAudited",
	}},
	// R=2 through crash/recover churn under the default balancer: ships,
	// syncs, warm promotions and re-replication.
	{name: "replication-churn", config: func(cfg *Config) func(*Cluster) {
		var s fault.Schedule
		s.CrashHottest(40).Recover(150, 0).Crash(250, 2).Recover(400, 2)
		cfg.MDS, cfg.RecoveryTicks, cfg.Faults = 5, 12, &s
		cfg.Workload = failoverZipf()
		cfg.Replication = replica.MustManager(replica.DefaultPolicy())
		return nil
	}, check: func(t *testing.T, r *run) {
		if r.c.Promotions() == 0 {
			t.Error("no warm promotions under the fault schedule")
		}
		if r.c.Replicas().ResyncsDone() == 0 {
			t.Error("the re-replicator never restored R after a loss")
		}
		checkAuthLive(t, r.c)
	}, skip: map[string]string{"leases-idle": readOnlyLeases}, entries: map[string]string{
		"rerun": "TestReplicationDeterministic",
		"audit": "TestReplicationFaultChurnAudited",
	}},
	// A 16-rank shared-directory create storm: dirfrag splits rather
	// than whole-directory migrations.
	{name: "shared-dir", config: func(cfg *Config) func(*Cluster) {
		cfg.MDS, cfg.Clients, cfg.Seed = 16, 24, 11
		cfg.Workload = workload.NewMDShared(workload.MDSharedConfig{CreatesPerClient: 4000})
		return nil
	}, entries: map[string]string{"resolve-cache-off": "TestResolveCacheDifferentialSharedDir"}},
	// A skewed three-tenant mix without admission control.
	{name: "three-tenants", config: func(cfg *Config) func(*Cluster) {
		cfg.MDS, cfg.Clients, cfg.Seed = 4, 12, 11
		cfg.Workload = workload.DefaultTenants(3, 0.5)
		return nil
	}},
	// Write-only at R=2: reads never dominate, so no subtree qualifies
	// for a lease.
	{name: "md-replicated", config: func(cfg *Config) func(*Cluster) {
		cfg.MDS, cfg.Clients, cfg.Seed = 4, 12, 11
		cfg.Workload = smallMD()
		cfg.Replication = replica.MustManager(replica.DefaultPolicy())
		return nil
	}},
	// Two crashes of fixed ranks at the default size (TestTraceFailoverSequence).
	{name: "crash-recover", config: func(cfg *Config) func(*Cluster) {
		var s fault.Schedule
		s.Crash(40, 0).Recover(100, 0).Crash(150, 1).Recover(200, 1)
		cfg.RecoveryTicks, cfg.Faults = 12, &s
		cfg.Workload = failoverZipf()
		return nil
	}},
	// A crash of whichever rank is hottest, then of rank 2.
	{name: "crash-hottest", config: func(cfg *Config) func(*Cluster) {
		var s fault.Schedule
		s.CrashHottest(40).Recover(150, 0).Crash(250, 2).Recover(400, 2)
		cfg.RecoveryTicks, cfg.Faults = 12, &s
		cfg.Workload = failoverZipf()
		return nil
	}, check: func(t *testing.T, r *run) { checkAuthLive(t, r.c) },
		entries: map[string]string{"rerun": "TestFailoverScheduledFaultsDeterministic"}},

	// Saturated rows: most clients are cut every tick and their cut
	// suffix is carried; between them they cover everything that
	// invalidates, splits or ends a carried plan.
	{name: "saturated/migrations+splits", drive: stepWindows, config: func(cfg *Config) func(*Cluster) {
		// A shared-directory create storm (dirfrag splits) beside
		// private Zipf readers (whole-directory migrations).
		cfg.MDS, cfg.Clients, cfg.Seed, cfg.Capacity = 4, 16, 11, 250
		cfg.Workload = workload.NewMixed(
			workload.NewMDShared(workload.MDSharedConfig{CreatesPerClient: 2500}),
			workload.NewZipf(workload.ZipfConfig{FilesPerClient: 200, OpsPerClient: 6000}))
		return nil
	}, check: func(t *testing.T, r *run) {
		if st := r.st; st.migrated == 0 || st.entries < 4 || st.versions < 3 {
			t.Errorf("no rebalancing to invalidate windows: %+v", st)
		}
	}},
	{name: "saturated/crashes", drive: stepWindows, config: func(cfg *Config) func(*Cluster) {
		var sched fault.Schedule
		sched.Crash(20, 0).Recover(70, 0).Crash(100, 2).Recover(150, 2)
		cfg.MDS, cfg.Clients, cfg.Seed, cfg.Capacity = 4, 16, 11, 250
		cfg.RecoveryTicks = 12
		cfg.Faults = &sched
		cfg.Workload = workload.NewZipf(workload.ZipfConfig{FilesPerClient: 200, OpsPerClient: 12000})
		return nil
	}, check: func(t *testing.T, r *run) {
		if st := r.st; st.ticksRun < 160 || st.versions < 2 {
			t.Errorf("run did not span both crashes and takeovers: %+v", st)
		}
	}},
	{name: "saturated/leases-write-revoke", drive: stepWindows, config: func(cfg *Config) func(*Cluster) {
		cfg.MDS, cfg.Clients, cfg.Seed, cfg.Capacity = 5, 16, 11, 150
		cfg.Workload = workload.NewReadStorm(workload.ReadStormConfig{Files: 300, OpsPerClient: 5000, WriteEvery: 40})
		pol := replica.DefaultPolicy()
		pol.R, pol.LeaseTicks, pol.ReplicateReadFrac = 3, 30, 0.6
		cfg.Replication = replica.MustManager(pol)
		return nil
	}, check: func(t *testing.T, r *run) {
		if r.st.leases == 0 {
			t.Errorf("no op served by a lease holder: %+v", r.st)
		}
	}},
	{name: "saturated/tenants-contended", drive: stepWindows, config: func(cfg *Config) func(*Cluster) {
		cfg.MDS, cfg.Clients, cfg.Seed, cfg.Capacity = 4, 16, 11, 400
		cfg.Workload = workload.NewTenants(workload.TenantsConfig{Tenants: 4, Skew: 1},
			func(tn, clients, off int) workload.Generator {
				dir := fmt.Sprintf("/t%d", tn)
				if tn%2 == 0 {
					return workload.NewZipf(workload.ZipfConfig{Dir: dir, ClientOffset: off, FilesPerClient: 100, OpsPerClient: 5000})
				}
				return workload.NewMD(workload.MDConfig{Dir: dir, ClientOffset: off, CreatesPerClient: 5000, StatEvery: 4})
			})
		pol := tenant.DefaultPolicy()
		pol.Rate, pol.Burst = 300, 600
		cfg.Tenancy = tenant.MustManager(pol)
		return nil
	}, check: carriesCreates},
	{name: "saturated/datapath", drive: stepWindows, config: func(cfg *Config) func(*Cluster) {
		// Every open moves data and ends its run.
		cfg.MDS, cfg.Clients, cfg.Seed, cfg.Capacity = 3, 12, 11, 8
		cfg.DataBandwidth = 6 * (64 << 20)
		cfg.Workload = workload.NewCNN(workload.CNNConfig{Dirs: 6, FilesPerDir: 20})
		return nil
	}, check: func(t *testing.T, r *run) {
		if r.st.ends == 0 {
			t.Errorf("no carried entry ends its run: %+v", r.st)
		}
	}},
	{name: "saturated/tracefile-creates", drive: stepWindows, config: func(cfg *Config) func(*Cluster) {
		cfg.MDS, cfg.Clients, cfg.Seed, cfg.Capacity = 2, 8, 11, 12
		cfg.Workload = createTrace()
		return nil
	}, check: func(t *testing.T, r *run) {
		if r.st.ends == 0 || r.st.creates == 0 {
			t.Errorf("no carried create ends its run: %+v", r.st)
		}
	}},
	{name: "saturated/dup-creates", drive: stepWindows, config: func(cfg *Config) func(*Cluster) {
		after := dupCreateScenario(nil)(cfg)
		cfg.Capacity = 40
		return after
	}, check: carriesCreates},
}

// readOnlyLeases is why a replicated Zipf row is off the idle-lease
// axis: every op of the stream reads, so hot subtrees qualify.
const readOnlyLeases = "a read-only stream: its hot subtrees qualify for leases"

// scenarioNamed returns the table row called name.
func scenarioNamed(t *testing.T, name string) scenario {
	t.Helper()
	for _, sc := range scenarios {
		if sc.name == name {
			return sc
		}
	}
	t.Fatalf("no scenario %q", name)
	return scenario{}
}

// pinned memoizes, per row, the digests of its run without an axis: of
// the whole output and of the CSV part. Every axis compares against
// them, so a row's plain run happens once per go test.
var pinned = map[string][2]string{}

func remember(sc scenario, r *run) [2]string {
	d := [2]string{digest(r.output(false)), digest(r.csv)}
	pinned[sc.name] = d
	return d
}

// pinnedRun returns the digests of sc's run without an axis, running it
// if no test has yet.
func pinnedRun(t *testing.T, sc scenario) [2]string {
	t.Helper()
	if d, ok := pinned[sc.name]; ok {
		return d
	}
	return remember(sc, runScenario(t, sc, nil))
}

// pinRow runs a row without an axis, checks its output against the
// row's pin and runs the row's check.
func pinRow(t *testing.T, sc scenario) *run {
	t.Helper()
	r := runScenario(t, sc, nil)
	simtest.Pin(t, sc.name, remember(sc, r)[0])
	if sc.check != nil {
		sc.check(t, r)
	}
	return r
}

// leasesDrainScenario walks every way a live lease dies, each of which
// the next plan phase must already see in the manager's lease set: a
// graceful drain of a current holder, an export of a leased subtree
// (submitted the way a balancer submits one; the reconcile after the
// authority move revokes), a crash of another holder, and the storm's
// own writes. Victims are
// picked from the manager's live leases when the event fires, so the
// scenario keeps hitting holders if the model's placement shifts.
func leasesDrainScenario(cfg *Config) func(*Cluster) {
	cfg.MDS = 6
	cfg.Clients = 16
	cfg.Seed = 11
	cfg.RecoveryTicks = 12
	cfg.Workload = workload.NewReadStorm(workload.ReadStormConfig{
		Files:        300,
		OpsPerClient: 20000,
		WriteEvery:   40,
	})
	pol := replica.DefaultPolicy()
	pol.R = 3
	pol.LeaseTicks = 30
	pol.ReplicateReadFrac = 0.6
	cfg.Replication = replica.MustManager(pol)
	return func(c *Cluster) {
		// leased returns the first group holding a live lease.
		leased := func() (g *replica.Group) {
			c.rep.ForEachGroup(func(x *replica.Group) {
				if g == nil && len(x.Leases) > 0 {
					g = x
				}
			})
			return g
		}
		// whenLeased runs fn at the first tick >= tick with a live lease.
		var whenLeased func(tick int64, fn func(*replica.Group))
		whenLeased = func(tick int64, fn func(*replica.Group)) {
			c.events.schedule(tick, func() {
				if g := leased(); g != nil {
					fn(g)
					return
				}
				whenLeased(c.tick+1, fn)
			})
		}
		whenLeased(40, func(g *replica.Group) { c.StartDrain(int(g.Leases[0].Rank)) })
		whenLeased(62, func(g *replica.Group) {
			for r := range c.servers {
				if to := namespace.MDSID(r); to != g.Primary && c.importable(to) {
					c.migrator.Submit(g.Key, g.Primary, to, 1, c.tick)
					return
				}
			}
		})
		whenLeased(90, func(g *replica.Group) { c.CrashMDS(int(g.Leases[0].Rank)) })
	}
}

// TestLeasesDrainCoversEveryRevoke checks the leases-drain row does
// what it is pinned for: leases die by drain, crash, migration and
// write, and holders serve reads in between.
func TestLeasesDrainCoversEveryRevoke(t *testing.T) {
	r := runScenario(t, scenarioNamed(t, "leases-drain"), nil)
	for _, reason := range []string{"drain", "crash", "migrate", "write"} {
		ev := regexp.MustCompile(`"type":"lease_revoke"[^\n]*"reason":"` + reason + `"`)
		if !ev.Match(r.trace) {
			t.Errorf("no lease revoked by %s", reason)
		}
	}
	if r.c.LeaseServes() == 0 {
		t.Error("no ops served by lease holders")
	}
}

// TestParallelEngineDifferential pins the tick engine's output: each
// unsaturated row's CSVs and event trace must hash to the digest its
// name pins, so any change of RNG consumption, barrier order, budget
// arbitration or inode-number assignment shows up as a moved digest.
// The name predates the engine running on one goroutine.
func TestParallelEngineDifferential(t *testing.T) {
	for _, sc := range scenarios {
		if !strings.HasPrefix(sc.name, "saturated/") {
			t.Run(sc.name, func(t *testing.T) { pinRow(t, sc) })
		}
	}
}

// TestCarriedPlanMatchesFresh is the contract of the carried plan: every
// saturated row runs under the window oracle every tick, carries plans,
// and hashes to its pin, which was recorded before plans were carried.
// The resolve-cache-off axis runs the same rows with the cache disabled
// — carrying nothing and resolving every op of every phase afresh —
// and requires the same bytes.
func TestCarriedPlanMatchesFresh(t *testing.T) {
	for _, sc := range scenarios {
		name, ok := strings.CutPrefix(sc.name, "saturated/")
		if !ok {
			continue
		}
		t.Run(name, func(t *testing.T) {
			r := pinRow(t, sc)
			t.Logf("%+v", r.st)
			if r.st.stalls == 0 || r.st.carried == 0 {
				t.Errorf("not saturated, nothing carried: %+v", r.st)
			}
		})
	}
}
