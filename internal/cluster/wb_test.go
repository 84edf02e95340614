package cluster

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/audit"
	"repro/internal/elastic"
	"repro/internal/fault"
	"repro/internal/namespace"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/rng"
	"repro/internal/workload"
)

// mdCreateHeavy is the MDtest-style create-heavy workload the
// write-back tests run: private per-client directory trees with an
// interleaved stat every 64 creates.
func mdCreateHeavy(n int) workload.Generator {
	return workload.NewMD(workload.MDConfig{
		CreatesPerClient: n,
		DirsPerClient:    4,
		StatEvery:        64,
	})
}

// contendedTenants is four Zipf-sized tenants running zipf reads, mdtest
// creates and a read storm with writes, each client drawing ops ops,
// under buckets tight enough that the big tenants throttle every tick:
// the admission path actually taken, not the fast path.
func contendedTenants(ops int) Config {
	gen := workload.NewTenants(workload.TenantsConfig{Tenants: 4, Skew: 1},
		func(tn, clients, off int) workload.Generator {
			dir := fmt.Sprintf("/tenant%02d", tn)
			switch tn % 3 {
			case 0:
				return workload.NewZipf(workload.ZipfConfig{Dir: dir + "/zipf", ClientOffset: off,
					FilesPerClient: 500, OpsPerClient: ops})
			case 1:
				return workload.NewMD(workload.MDConfig{Dir: dir + "/md", ClientOffset: off,
					CreatesPerClient: ops})
			default:
				return workload.NewReadStorm(workload.ReadStormConfig{Dir: dir + "/storm", ClientOffset: off,
					WriteEvery: 50, OpsPerClient: ops})
			}
		})
	return Config{Workload: gen, Tenancy: tenantManager(1500, 3000)}
}

// TestWriteBackDrawBounded runs the full-stack shape — write-back at
// B=32/F=4 under contended tenant buckets, R=3 with leases, the
// autoscaler, a crash of the hottest rank and the auditor — and checks
// after every tick that no client queues more than its window,
// max(BatchSize, FlushEvery × its largest per-tick credit): the draw is
// a closed loop, not ClientRate ops a tick whatever was served.
func TestWriteBackDrawBounded(t *testing.T) {
	bc := &BatchingConfig{BatchSize: 32, FlushEvery: 4}
	pol := elastic.DefaultPolicy()
	pol.MinRanks, pol.MaxRanks = 8, 16
	var sched fault.Schedule
	sched.CrashHottest(120)
	cfg := contendedTenants(1 << 30)
	cfg.MDS, cfg.Clients, cfg.ClientRate, cfg.Seed = 8, 64, 150, 42
	cfg.Batching = bc
	cfg.Replication = leaseManager(3, 40, 0.75)
	cfg.Elastic = elastic.MustController(pol)
	cfg.Faults = &sched
	cfg.Audit = audit.New(audit.Options{})
	c := newTestCluster(t, cfg)
	for tick := 0; tick < 200; tick++ {
		c.Step()
		for _, cl := range c.Clients() {
			win := max(int64(bc.BatchSize), bc.FlushEvery*int64(math.Ceil(cl.Rate())))
			if n := cl.PendingOps(); n > win {
				t.Fatalf("tick %d: client %d queues %d ops, window %d", tick, cl.ID, n, win)
			}
		}
	}
	if err := cfg.Audit.Err(); err != nil {
		t.Error(err)
	}
}

// TestWriteBackMDtestAuditClean runs the create-heavy MDtest workload
// in write-back mode under the every-tick auditor (which now checks the
// in-flight/journal balance) and sanity-checks the batching metrics:
// batches actually flushed and committed, with a mean size the
// amortization claim rests on, and nothing left in flight at the end.
func TestWriteBackMDtestAuditClean(t *testing.T) {
	aud := audit.New(audit.Options{EveryTick: true})
	c := newTestCluster(t, Config{
		MDS:      4,
		Clients:  16,
		Seed:     11,
		Workload: mdCreateHeavy(800),
		Batching: &BatchingConfig{BatchSize: 32, FlushEvery: 8},
		Audit:    aud,
	})
	inodes := c.Tree().NumInodes()
	c.RunUntilDone(30000)
	if !c.Done() {
		t.Fatal("clients must finish")
	}
	for _, v := range aud.Violations() {
		t.Errorf("audit violation: %s", v)
	}
	rec := c.Metrics()
	if rec.BatchFlushes() == 0 || rec.BatchCommits() == 0 {
		t.Fatalf("write-back run must flush and commit batches, got flushes=%d commits=%d",
			rec.BatchFlushes(), rec.BatchCommits())
	}
	if m := rec.MeanBatchSize(); m <= 1 {
		t.Fatalf("mean batch size %g: batching never formed a real batch", m)
	}
	for _, cl := range c.Clients() {
		if cl.Inflight() != 0 {
			t.Fatalf("client %d finished with %d ops in flight", cl.ID, cl.Inflight())
		}
	}
	checkOneInodePerCreate(t, c, inodes, 16*800)
}

// checkOneInodePerCreate asserts that a finished MD run's tree gained
// exactly one inode per create. The names are client-unique, so a batch
// applied twice pops ops it never served and leaves their names
// uncreated.
func checkOneInodePerCreate(t *testing.T, c *Cluster, before, creates int) {
	t.Helper()
	if got := c.Tree().NumInodes() - before; got != creates {
		t.Fatalf("the tree gained %d inodes for %d client-unique creates", got, creates)
	}
}

// TestWriteBackAdmissionLive runs the wb-tenants-data row with rank
// pools of 50, where every client queues more commit groups at a rank
// than its tick budget. A batch the pool cannot fund after the client's
// earlier batches were admitted must not block the client: serve would
// skip those batches too, and once every client is in that state
// nothing is served. The every-tick auditor's liveness check catches
// the stall; the run must finish.
func TestWriteBackAdmissionLive(t *testing.T) {
	var cfg Config
	scenarioNamed(t, "wb-tenants-data").config(&cfg)
	cfg.Capacity = 50
	cfg.Audit = audit.New(audit.Options{EveryTick: true})
	c := newTestCluster(t, cfg)
	c.RunUntilDone(5000)
	for _, v := range cfg.Audit.Violations() {
		t.Errorf("audit violation: %s", v)
	}
	if !c.Done() {
		t.Fatalf("clients must finish: tick %d", c.Tick())
	}
}

// TestWriteBackAdmissionCutStalls: a batch the rank pool funds only in
// part is served up to the cut, and the client stalls there, noting one
// stall at the rank — also when the admitted prefix is the larger part
// of the batch. One rank funds two groups of 4 a tick, and one client's
// first tick flushes 10 ops on one subtree as one batch, admitted 8.
func TestWriteBackAdmissionCutStalls(t *testing.T) {
	c := newTestCluster(t, Config{
		MDS: 1, Clients: 1, ClientRate: 10, Capacity: 2, Seed: 11,
		Workload: workload.NewZipf(workload.ZipfConfig{FilesPerClient: 50, OpsPerClient: 100}),
		Batching: &BatchingConfig{BatchSize: 4, FlushEvery: 2},
	})
	c.Step()
	if done, pending := c.Clients()[0].OpsDone(), c.Clients()[0].PendingOps(); done != 8 || pending != 2 {
		t.Fatalf("first tick served %d ops and left %d queued, want 8 and 2", done, pending)
	}
	if n := c.Servers()[0].Stalls(); n != 1 {
		t.Errorf("the admission cut noted %d stalls, want 1", n)
	}
}

// TestWriteBackCrashRequeuesExactlyOnce crashes the rank holding the
// deepest unapplied group-commit journal mid-run (capacity is throttled
// so journals stay deep) and checks the replay-or-drop contract:
// the dead journal empties at the crash, the dropped batches re-queue
// client-side, the every-tick auditor stays clean through takeover, and
// the job still finishes with one inode per create — an op applied
// before the crash and re-queued after it would pop an op it never
// served.
func TestWriteBackCrashRequeuesExactlyOnce(t *testing.T) {
	aud := audit.New(audit.Options{EveryTick: true})
	// A budget unit admits a whole commit group (up to BatchSize ops),
	// so retention needs demand above Capacity*BatchSize per rank:
	// 16 clients * 150 ops/tick against 4*8 groups of 32 keeps the
	// journals deep.
	c := newTestCluster(t, Config{
		MDS:           4,
		Clients:       16,
		Seed:          11,
		Capacity:      8,
		RecoveryTicks: 12,
		Workload:      mdCreateHeavy(600),
		Batching:      &BatchingConfig{BatchSize: 32, FlushEvery: 8},
		Audit:         aud,
	})
	inodes := c.Tree().NumInodes()
	c.Run(20)
	victim, deepest := -1, int64(0)
	for i, ops := range c.engine.journaled() {
		if c.Servers()[i].Up() && ops > deepest {
			victim, deepest = i, ops
		}
	}
	if victim < 0 {
		t.Fatal("scenario must leave an unapplied journal to crash")
	}
	if !c.CrashMDS(victim) {
		t.Fatal("crash refused")
	}
	if ops := c.engine.journaled()[victim]; ops != 0 {
		t.Fatalf("crashed rank still holds %d journaled ops", ops)
	}
	if d := c.engine.wb.depth[victim]; d != 0 {
		t.Fatalf("crashed rank still counts %d live batches", d)
	}
	if c.Metrics().BatchRequeues() == 0 {
		t.Fatal("crashing a rank with an unapplied journal must re-queue batches")
	}
	c.RunUntilDone(40000)
	if !c.Done() {
		t.Fatal("clients must finish after the crash")
	}
	for _, v := range aud.Violations() {
		t.Errorf("audit violation: %s", v)
	}
	for _, cl := range c.Clients() {
		if cl.Inflight() != 0 {
			t.Fatalf("client %d finished with %d ops in flight", cl.ID, cl.Inflight())
		}
	}
	checkOneInodePerCreate(t, c, inodes, 16*600)
}

// TestCrashRequeueOrder: a crashed rank's batches re-queue in the order
// they reached it, not in client or flush order. Client 0 flushes a
// batch to rank 1, then clients 2 and 1 flush one each to rank 0; a
// migration then moves client 0's directory to rank 0, where its
// re-homed batch arrives last. No rank has budget, so all three stay
// journaled until rank 0 crashes.
func TestCrashRequeueOrder(t *testing.T) {
	ring := obs.NewRing(64)
	bus := obs.NewBus(ring)
	bus.Allow(obs.EvBatchRequeue)
	c := newTestCluster(t, Config{
		MDS: 2, Clients: 3, ClientRate: 8, Seed: 1, Bus: bus,
		Workload: workload.NewMD(workload.MDConfig{CreatesPerClient: 64}),
		Batching: &BatchingConfig{BatchSize: 4, FlushEvery: 64},
	})
	for ci, rank := range []int{1, 0, 0} {
		if err := c.PinPath(fmt.Sprintf("/md/client%03d", ci), rank); err != nil {
			t.Fatal(err)
		}
	}
	e := c.engine
	e.ensure()
	clear(e.avail)
	for _, ci := range []int32{0, 2, 1} {
		e.credit[ci] = 8
		e.wbAdmitClient(ci, e.wbPlan(ci, 0), 0)
	}
	dir, err := c.Tree().Lookup("/md/client000")
	if err != nil {
		t.Fatal(err)
	}
	c.Partition().SetAuth(namespace.FragKey{Dir: dir.Ino, Frag: namespace.WholeFrag}, 0)
	clear(e.blocked)
	e.wbAdmitClient(0, nil, 0) // re-resolves client 0's batch onto rank 0
	if got := e.wb.depth[:2]; got[0] != 3 || got[1] != 0 {
		t.Fatalf("live batches per rank %v before the crash, want [3 0]", got)
	}
	if !c.CrashMDS(0) {
		t.Fatal("crash refused")
	}
	var order []any
	for _, ev := range ring.OfType(obs.EvBatchRequeue) {
		if ev.Fields["rank"] != 0 || ev.Fields["n"] != 8 {
			t.Errorf("requeue %v: want rank 0, n 8", ev.Fields)
		}
		order = append(order, ev.Fields["client"])
	}
	if fmt.Sprint(order) != "[2 1 0]" {
		t.Fatalf("requeued clients %v, want arrival order [2 1 0]", order)
	}
	for _, cl := range c.Clients() {
		if cl.Inflight() != 0 {
			t.Errorf("client %d keeps %d ops in flight", cl.ID, cl.Inflight())
		}
	}
	if e.wb.depth[0] != 0 || e.journaled()[0] != 0 {
		t.Errorf("crashed rank keeps %d batches of %d ops", e.wb.depth[0], e.journaled()[0])
	}
}

// TestWriteBackChurnWithReplication runs write-back MDtest under seeded
// MTBF churn with warm-standby replication (PR 6): every crash both
// drops that rank's journal (re-queues) and races the standby
// promotion. The every-tick auditor holding through that interaction is
// the test.
func TestWriteBackChurnWithReplication(t *testing.T) {
	sched := fault.MTBF(fault.MTBFConfig{
		Ranks: 4, MTBF: 150, MTTR: 50, Horizon: 1500, MaxConcurrent: 1,
	}, rng.New(11).Fork(99))
	if sched.Empty() {
		t.Fatal("churn schedule must produce events")
	}
	aud := audit.New(audit.Options{EveryTick: true})
	c := newTestCluster(t, Config{
		MDS:           4,
		Clients:       16,
		Seed:          11,
		RecoveryTicks: 25,
		Faults:        &sched,
		Workload:      mdCreateHeavy(400),
		Batching:      &BatchingConfig{BatchSize: 16, FlushEvery: 4},
		Replication:   replica.MustManager(replica.DefaultPolicy()),
		Audit:         aud,
	})
	inodes := c.Tree().NumInodes()
	c.RunUntilDone(40000)
	if !c.Done() {
		t.Fatal("clients must finish through the churn")
	}
	for _, v := range aud.Violations() {
		t.Errorf("audit violation: %s", v)
	}
	for _, cl := range c.Clients() {
		if cl.Inflight() != 0 {
			t.Fatalf("client %d finished with %d ops in flight", cl.ID, cl.Inflight())
		}
	}
	checkOneInodePerCreate(t, c, inodes, 16*400)
}
