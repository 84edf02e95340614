package cluster

import (
	"testing"

	"repro/internal/audit"
	"repro/internal/fault"
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
	if c.racedCreates != 0 {
		t.Fatalf("MD names are client-unique; %d raced creates mean an op applied twice",
			c.racedCreates)
	}
}

// TestWriteBackCrashRequeuesExactlyOnce crashes the rank holding the
// deepest unapplied group-commit journal mid-run (capacity is throttled
// so journals stay deep) and checks the replay-or-drop contract:
// the dead journal empties at the crash, the dropped batches re-queue
// client-side, the every-tick auditor stays clean through takeover, and
// the job still finishes with zero raced creates — an op applied before
// the crash and re-queued after it would surface as a duplicate create
// of a client-unique name.
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
	c.Run(20)
	victim, deepest := -1, int64(0)
	for i, s := range c.Servers() {
		if ops := s.Journal().Ops(); s.Up() && ops > deepest {
			victim, deepest = i, ops
		}
	}
	if victim < 0 {
		t.Fatal("scenario must leave an unapplied journal to crash")
	}
	if !c.CrashMDS(victim) {
		t.Fatal("crash refused")
	}
	if ops := c.Servers()[victim].Journal().Ops(); ops != 0 {
		t.Fatalf("crashed rank still holds %d journaled ops", ops)
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
	if c.racedCreates != 0 {
		t.Fatalf("%d raced creates: a re-queued batch re-applied a create", c.racedCreates)
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
	if c.racedCreates != 0 {
		t.Fatalf("%d raced creates under churn: some batch re-applied", c.racedCreates)
	}
}
