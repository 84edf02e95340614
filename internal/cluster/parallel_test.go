package cluster

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"regexp"
	"testing"

	"repro/internal/audit"
	"repro/internal/fault"
	"repro/internal/namespace"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// runEngineDiff runs one seeded scenario and returns the run's complete
// externally visible output: per-tick CSV, per-epoch CSV, and the JSONL
// event trace. The scenario mutates the config (schedules, replication)
// before the cluster is built.
func runEngineDiff(t *testing.T, scenario func(*Config) func(*Cluster)) []byte {
	t.Helper()
	var tr bytes.Buffer
	sink := obs.NewJSONL(&tr)
	cfg := Config{Bus: obs.NewBus(sink)}
	after := scenario(&cfg)
	c := newTestCluster(t, cfg)
	if after != nil {
		after(c)
	}
	c.RunUntilDone(30000)
	if !c.Done() {
		t.Fatal("clients must finish")
	}
	var out bytes.Buffer
	if err := c.Metrics().WriteCSV(&out); err != nil {
		t.Fatal(err)
	}
	if err := c.Metrics().WriteEpochCSV(&out); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	out.Write(tr.Bytes())
	return out.Bytes()
}

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

// engineScenarios are the stress configurations of the engine
// differential. Each returns an optional post-construction hook. digest
// is the SHA-256 of the run's runEngineDiff bytes, recorded at the
// commit before write-back became a strategy of the one tick loop (rows
// added since: at the parent of the commit that added them): it pins
// the engine's output across commits. A change that means to alter
// model output re-records it.
var engineScenarios = []struct {
	name     string
	digest   string
	scenario func(*Config) func(*Cluster)
}{
	{"failover", "908013f381dc15b8039eb1f6d8f781f8b38c529b52c7e83fbe28e44ddd360464", func(cfg *Config) func(*Cluster) {
		var sched fault.Schedule
		sched.Crash(40, 0).Recover(110, 0).Crash(160, 3).Recover(230, 3)
		cfg.MDS = 16
		cfg.Clients = 24
		cfg.Seed = 11
		cfg.RecoveryTicks = 12
		cfg.Faults = &sched
		cfg.Workload = failoverZipf()
		return nil
	}},
	{"elastic", "d09af96f0f1eff6d21e16922386cda8fd873fad27561a8b4efc7ec8c328a8537", func(cfg *Config) func(*Cluster) {
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
	{"replication", "daf22b42bff1f2755a625be16af913de7131404e604002b6a3f8fc7fe0e60d46", func(cfg *Config) func(*Cluster) {
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
	}},
	{"batched", "e55c340d2d673c81c5c3869d8575731995b28e2920004d30056d6ebc477a142a", func(cfg *Config) func(*Cluster) {
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
	{"leases", "91d73cc92b8fb20297dc53558d4ffb2631690d315788f6c7103bc6d7799a09b6", func(cfg *Config) func(*Cluster) {
		// Lease-served read storm with writes mixed in and a holder-rank
		// crash mid-run: lease routing, the inode-sticky holder spread,
		// write revokes at the serve barriers, carve heat seeding, and
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
	{"leases-drain", "daa869cd708ce8305b0d280edbe9cb7ec518db340032e30202d26a2b3466ea75", leasesDrainScenario},
	{"tenants", "8e99465160a8ee91c2f55cd0f2285d175c15363f254c1be9ffad24d58268d10b", func(cfg *Config) func(*Cluster) {
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
	{"wb-tenants-data", "06a47484b9dc0f361ae918edf6753bb4b2f42ce7901d2484081067508fc67298", func(cfg *Config) func(*Cluster) {
		// Write-back under contended token buckets, a starved data path,
		// rank pools well short of demand and a crash of the rank that
		// starts with the whole namespace: walks the shared
		// gate (debt, backoff), the bucket grant/refund arithmetic, the
		// debt path and the crash-requeue sweep together. Capacity is
		// the lowest round number at which the run finishes (see
		// DESIGN.md, known limitations of write-back admission).
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
		cfg.DataPath = true
		cfg.OSDs = 1
		cfg.OSDBandwidth = 48 << 10
		return nil
	}},
	// Every created name created twice (see dupCreates): a create served
	// after its name was adopted, two promises of one name in one lane
	// and round, and a name-hash collision between promises.
	{"dup-creates", "162e573a50004fc77f7a99c423f8aa533165c79dcb6b92f02fab2b4303bd66b4", dupCreateScenario(nil)},
	{"wb-dup-creates", "456b4b51ff3265f41b9f2bceca5242d81bc5910b4ff33faa39c1dc1f6e76235b", dupCreateScenario(&BatchingConfig{BatchSize: 8, FlushEvery: 2})},
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

// TestLeasesDrainCoversEveryRevoke checks the leases-drain scenario does
// what its digest is recorded for: leases die by drain, crash, migration
// and write, and holders serve reads in between.
func TestLeasesDrainCoversEveryRevoke(t *testing.T) {
	var c *Cluster
	out := runEngineDiff(t, func(cfg *Config) func(*Cluster) {
		after := leasesDrainScenario(cfg)
		return func(built *Cluster) {
			c = built
			after(built)
		}
	})
	for _, reason := range []string{"drain", "crash", "migrate", "write"} {
		ev := regexp.MustCompile(`"type":"lease_revoke"[^\n]*"reason":"` + reason + `"`)
		if !ev.Match(out) {
			t.Errorf("no lease revoked by %s", reason)
		}
	}
	if c.LeaseServes() == 0 {
		t.Error("no ops served by lease holders")
	}
}

// dupCreateWBRaced is the raced-create count of the wb-dup-creates
// scenario: write-back promises are probe-free, so a duplicate loses
// its slot at the adoption barrier and is counted there.
const dupCreateWBRaced = 604

// TestParallelEngineDifferential pins the phased tick engine's output:
// each seeded scenario's CSVs and event trace must hash to the digest
// recorded for it, so any change of RNG consumption, barrier order,
// budget arbitration or inode-number assignment shows up as a diverging
// digest. The name predates the engine running on one goroutine.
func TestParallelEngineDifferential(t *testing.T) {
	for _, sc := range engineScenarios {
		t.Run(sc.name, func(t *testing.T) {
			out := runEngineDiff(t, sc.scenario)
			if got := fmt.Sprintf("%x", sha256.Sum256(out)); got != sc.digest {
				t.Errorf("output digest %s, recorded %s: model output changed", got, sc.digest)
			}
		})
	}
}

// TestRecoverClearsOnlyMatchingBackoffs is the two-crashes regression:
// recovering one rank must wake only the clients that were backing off
// against it. The old blanket ClearBackoff also woke clients backing
// off against a rank that was still down, collapsing their carefully
// grown retry intervals into a thundering herd of doomed retries.
func TestRecoverClearsOnlyMatchingBackoffs(t *testing.T) {
	aud := audit.New(audit.Options{EveryTick: true})
	c := newTestCluster(t, Config{
		MDS:           4,
		Clients:       24,
		Seed:          11,
		RecoveryTicks: 200,
		Workload:      failoverZipf(),
		Audit:         aud,
	})
	c.Run(30)
	if !c.CrashMDS(0) || !c.CrashMDS(3) {
		t.Fatal("crashes refused")
	}
	c.Run(40)

	backingOff := map[int]int{} // rank -> clients in backoff against it
	keep := map[int]int64{}     // client -> backoff width against rank 3
	for _, cl := range c.Clients() {
		if cl.Backoff() > 0 {
			backingOff[int(cl.BackoffRank())]++
			if cl.BackoffRank() == 3 {
				keep[cl.ID] = cl.Backoff()
			}
		}
	}
	if backingOff[0] == 0 || backingOff[3] == 0 {
		t.Fatalf("scenario must have clients backing off against both down ranks, got %v", backingOff)
	}

	if !c.RecoverMDS(0) {
		t.Fatal("recovery refused")
	}
	for _, cl := range c.Clients() {
		if cl.Backoff() > 0 && cl.BackoffRank() == 0 {
			t.Fatalf("client %d still backing off against the recovered rank", cl.ID)
		}
	}
	for _, cl := range c.Clients() {
		if want, ok := keep[cl.ID]; ok {
			if cl.Backoff() != want || cl.BackoffRank() != 3 {
				t.Fatalf("client %d backoff against still-down rank 3 disturbed: backoff=%d rank=%d (want %d)",
					cl.ID, cl.Backoff(), cl.BackoffRank(), want)
			}
		}
	}

	c.RecoverMDS(3)
	c.RunUntilDone(30000)
	if !c.Done() {
		t.Fatal("clients must finish")
	}
	for _, v := range aud.Violations() {
		t.Errorf("audit violation: %s", v)
	}
}
