package cluster

import (
	"fmt"
	"testing"

	"repro/internal/audit"
	"repro/internal/fault"
	"repro/internal/mds"
	"repro/internal/namespace"
	"repro/internal/replica"
)

// pinDoomed pins n client dirs to the given rank and returns their
// governing keys — the replication groups the tests crash out from
// under.
func pinDoomed(t *testing.T, c *Cluster, n, rank int) []namespace.FragKey {
	t.Helper()
	var keys []namespace.FragKey
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("/zipf/client%03d", i)
		if err := c.PinPath(path, rank); err != nil {
			t.Fatal(err)
		}
		in, err := c.Tree().Lookup(path)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, namespace.FragKey{Dir: in.Ino, Frag: namespace.WholeFrag})
	}
	return keys
}

// TestWarmPromotionBeatsColdTakeover is the tentpole contract: with
// synced standbys, a crash hands every governed subtree to a survivor
// PromoteTicks after the crash — far inside the cold RecoveryTicks
// window — as one Warm recovery event, and the later cold takeover
// finds nothing to do.
func TestWarmPromotionBeatsColdTakeover(t *testing.T) {
	const (
		pinned  = 8
		window  = 20
		crashAt = 30
		doomed  = 2
	)
	pol := replica.DefaultPolicy()
	aud := audit.New(audit.Options{EveryTick: true})
	c := newTestCluster(t, Config{
		MDS:           3,
		Clients:       16,
		RecoveryTicks: window,
		Balancer:      nullBalancer{}, // only crash handling moves entries
		Workload:      failoverZipf(),
		Replication:   replica.MustManager(pol),
		Audit:         aud,
	})
	keys := pinDoomed(t, c, pinned, doomed)

	c.Run(crashAt)
	if got := len(c.Partition().EntriesOf(doomed)); got != pinned {
		t.Fatalf("scenario setup: doomed rank governs %d entries, want %d", got, pinned)
	}
	// The re-replicator must have fully replicated every group by now,
	// or the warm path silently degrades to cold and proves nothing.
	c.Replicas().ForEachGroup(func(g *replica.Group) {
		if len(g.Standbys) != pol.R-1 {
			t.Fatalf("group %v has %d standbys before the crash, want %d", g.Key, len(g.Standbys), pol.R-1)
		}
		for _, sb := range g.Standbys {
			if sb.Syncing {
				t.Fatalf("group %v standby %d still syncing at tick %d", g.Key, sb.Rank, crashAt)
			}
		}
	})

	if !c.CrashMDS(doomed) {
		t.Fatalf("crash of rank %d refused", doomed)
	}
	c.Run(int64(pol.PromoteTicks) + 1)

	if got := len(c.Partition().EntriesOf(doomed)); got != 0 {
		t.Fatalf("%d entries still on the dead rank after the promotion pass", got)
	}
	if got := c.Promotions(); got != pinned {
		t.Fatalf("promotions = %d, want %d (every pinned subtree promoted warm)", got, pinned)
	}
	evs := c.Metrics().RecoveryEvents()
	if len(evs) != 1 || !evs[0].Warm {
		t.Fatalf("recovery events = %+v, want exactly one Warm event", evs)
	}
	if got := evs[0].TicksToReassign(); got != int64(pol.PromoteTicks) {
		t.Fatalf("warm reassign after %d ticks, want PromoteTicks=%d — the whole point of the standby",
			got, pol.PromoteTicks)
	}
	if c.Metrics().WarmRecoveries() != 1 {
		t.Fatalf("WarmRecoveries = %d, want 1", c.Metrics().WarmRecoveries())
	}
	// Promoted owners carry the replayed journal heat, not a cold start.
	for _, key := range keys {
		e, ok := c.Partition().EntryAt(key)
		if !ok {
			t.Fatalf("pinned entry %v vanished", key)
		}
		if int(e.Auth) == doomed || !c.Servers()[e.Auth].Up() {
			t.Fatalf("entry %v promoted to rank %d: not a live survivor", key, e.Auth)
		}
		if _, heat := c.Servers()[e.Auth].KeyStats(key); heat <= 0 {
			t.Fatalf("entry %v has zero heat on its promoted owner — journal prefix not seeded", key)
		}
	}

	// Past the cold window: the scheduled cold takeover must be a no-op,
	// not a second reassignment of already-promoted subtrees.
	c.Run(window + 2)
	if got := len(c.Metrics().RecoveryEvents()); got != 1 {
		t.Fatalf("recovery events after the cold window = %d, want still 1 (cold takeover must no-op)", got)
	}

	c.RunUntilDone(30000)
	if !c.Done() {
		t.Fatal("clients must finish after a warm failover")
	}
	checkAuthLive(t, c)
	for _, v := range aud.Violations() {
		t.Errorf("audit violation: %s", v)
	}
}

// TestPromotionFallsBackColdWhenUnsynced starves the re-replicator
// (ResyncRate 1: a ~200-inode sync takes ~200 ticks) so no standby is
// synced when the crash lands: promotion must find nothing and the
// orphans must reach survivors through the unchanged cold takeover.
func TestPromotionFallsBackColdWhenUnsynced(t *testing.T) {
	const (
		pinned  = 6
		window  = 10
		crashAt = 30
		doomed  = 2
	)
	pol := replica.DefaultPolicy()
	pol.ResyncRate = 1
	aud := audit.New(audit.Options{EveryTick: true})
	c := newTestCluster(t, Config{
		MDS:           3,
		Clients:       12,
		RecoveryTicks: window,
		Balancer:      nullBalancer{},
		Workload:      failoverZipf(),
		Replication:   replica.MustManager(pol),
		Audit:         aud,
	})
	pinDoomed(t, c, pinned, doomed)

	c.Run(crashAt)
	if !c.CrashMDS(doomed) {
		t.Fatal("crash refused")
	}
	c.Run(window + 2)

	if got := len(c.Partition().EntriesOf(doomed)); got != 0 {
		t.Fatalf("%d entries still on the dead rank after the cold window", got)
	}
	if got := c.Promotions(); got != 0 {
		t.Fatalf("promotions = %d, want 0: nothing was synced, nothing may promote", got)
	}
	evs := c.Metrics().RecoveryEvents()
	if len(evs) != 1 || evs[0].Warm {
		t.Fatalf("recovery events = %+v, want exactly one cold event", evs)
	}
	if got := evs[0].TicksToReassign(); got != window {
		t.Fatalf("cold reassign after %d ticks, want the %d-tick window", got, window)
	}
	if c.Metrics().WarmRecoveries() != 0 {
		t.Fatal("a cold fallback must not count as a warm recovery")
	}

	c.RunUntilDone(30000)
	if !c.Done() {
		t.Fatal("clients must finish after the cold fallback")
	}
	checkAuthLive(t, c)
	for _, v := range aud.Violations() {
		t.Errorf("audit violation: %s", v)
	}
}

// TestReplicationCrashMidDrainAudited composes the three lifecycle
// paths: a rank is crashed mid-drain with replication attached. The
// crash cancels the drain, its subtrees reach survivors (warm or
// cold), no standby is ever left on the dead rank, and the whole
// interleaving stays audit-clean.
func TestReplicationCrashMidDrainAudited(t *testing.T) {
	const window = 12
	aud := audit.New(audit.Options{EveryTick: true})
	c := newTestCluster(t, Config{
		MDS:           6,
		Workload:      failoverZipf(),
		RecoveryTicks: window,
		Replication:   replica.MustManager(replica.DefaultPolicy()),
		Audit:         aud,
	})
	c.Run(60)
	victim := drainableRank(t, c, 200)
	if !c.StartDrain(victim) {
		t.Fatalf("StartDrain(%d) refused", victim)
	}
	for i := 0; i < 3 && !c.Servers()[victim].Decommissioned(); i++ {
		c.Step()
	}
	if c.Servers()[victim].Decommissioned() {
		t.Skip("drain completed before the crash could interrupt it")
	}
	if !c.CrashMDS(victim) {
		t.Fatal("crashing the draining rank refused")
	}
	if len(c.DrainingRanks()) != 0 {
		t.Fatal("crash must cancel the drain")
	}
	c.Run(window + 2)
	for _, e := range c.Partition().Entries() {
		if int(e.Auth) == victim {
			t.Fatalf("entry %v still owned by the crashed mid-drain rank", e.Key)
		}
	}
	c.Replicas().ForEachGroup(func(g *replica.Group) {
		if int(g.Primary) == victim {
			t.Fatalf("group %v still led by the dead rank %d", g.Key, victim)
		}
		for _, sb := range g.Standbys {
			if int(sb.Rank) == victim {
				t.Fatalf("group %v still has a standby on the dead rank %d", g.Key, victim)
			}
		}
	})
	c.RunUntilDone(30000)
	if !c.Done() {
		t.Fatal("clients must finish")
	}
	checkAuthLive(t, c)
	for _, v := range aud.Violations() {
		t.Errorf("audit violation: %s", v)
	}
}

// TestExporterCrashWhileImporterDrains is the queued-task composition:
// an export is queued into a rank that then starts draining (a queued
// inbound task must not block the drain), after which the export
// *source* crashes. The queued task aborts without moving authority,
// the drain completes, and the orphans reach survivors exactly once.
func TestExporterCrashWhileImporterDrains(t *testing.T) {
	const window = 10
	aud := audit.New(audit.Options{EveryTick: true})
	c := newTestCluster(t, Config{
		MDS:           4,
		Clients:       12,
		RecoveryTicks: window,
		Balancer:      nullBalancer{}, // no competing migrations
		Workload:      failoverZipf(),
		Audit:         aud,
	})
	keys := pinDoomed(t, c, 3, 2)
	if err := c.PinPath("/zipf/client003", 1); err != nil {
		t.Fatal(err)
	}
	c.Run(20)

	// Queue an export 2→1 without stepping: it must still be queued
	// when the drain starts and the exporter dies.
	task := c.Migrator().Submit(keys[0], 2, 1, 50, c.Tick())
	if task.State != mds.TaskQueued {
		t.Fatalf("task state = %v, want queued", task.State)
	}
	if !c.StartDrain(1) {
		t.Fatal("a merely queued inbound export must not block StartDrain")
	}
	if !c.CrashMDS(2) {
		t.Fatal("crash of the export source refused")
	}
	if task.State != mds.TaskAborted {
		t.Fatalf("task state = %v, want aborted after the exporter crash", task.State)
	}
	if e, ok := c.Partition().EntryAt(keys[0]); !ok || int(e.Auth) != 2 {
		t.Fatalf("queued abort moved authority to %v; it must stay on the (dead) exporter for takeover", e.Auth)
	}

	for c.Tick() < 5000 && !c.Servers()[1].Decommissioned() {
		c.Step()
	}
	if !c.Servers()[1].Decommissioned() {
		t.Fatal("drain never completed after the exporter crash")
	}
	c.Run(window + 2)
	if got := len(c.Partition().EntriesOf(2)); got != 0 {
		t.Fatalf("%d entries still on the dead exporter after the window", got)
	}
	if got := len(c.Metrics().RecoveryEvents()); got != 1 {
		t.Fatalf("recovery events = %d, want exactly 1", got)
	}
	c.RunUntilDone(30000)
	if !c.Done() {
		t.Fatal("clients must finish")
	}
	checkAuthLive(t, c)
	for _, v := range aud.Violations() {
		t.Errorf("audit violation: %s", v)
	}
}

// TestCrashPathOwnerFollowsSubtree covers partition-scoped fault
// injection: the crash lands on whichever rank is authoritative for
// the path at fire time, re-crashing an orphaned path is refused, and
// an unresolvable path is refused.
func TestCrashPathOwnerFollowsSubtree(t *testing.T) {
	c := newTestCluster(t, Config{
		MDS:           3,
		RecoveryTicks: 10,
		Balancer:      nullBalancer{},
		Workload:      failoverZipf(),
	})
	if err := c.PinPath("/zipf/client000", 2); err != nil {
		t.Fatal(err)
	}
	c.Run(10)
	if got := c.CrashPathOwner("/zipf/client000"); got != 2 {
		t.Fatalf("CrashPathOwner = %d, want the pinned owner 2", got)
	}
	if c.Servers()[2].Up() {
		t.Fatal("path owner still up after the crash")
	}
	// The path's authority still points at the down rank until takeover:
	// a second path crash has no live owner to kill.
	if got := c.CrashPathOwner("/zipf/client000"); got != -1 {
		t.Fatalf("re-crash of an orphaned path = %d, want -1", got)
	}
	if got := c.CrashPathOwner("/no/such/dir"); got != -1 {
		t.Fatalf("unresolvable path = %d, want -1", got)
	}
	c.RunUntilDone(30000)
	if !c.Done() {
		t.Fatal("clients must finish")
	}
	checkAuthLive(t, c)
}

// TestApplyFaultsPathCrash wires a path-scoped crash through the fault
// schedule: the event resolves the owner at fire time.
func TestApplyFaultsPathCrash(t *testing.T) {
	var s fault.Schedule
	s.CrashPath(15, "/zipf/client000")
	if err := s.Validate(3); err != nil {
		t.Fatal(err)
	}
	c := newTestCluster(t, Config{
		MDS:           3,
		RecoveryTicks: 8,
		Faults:        &s,
		Balancer:      nullBalancer{},
		Workload:      failoverZipf(),
	})
	if err := c.PinPath("/zipf/client000", 2); err != nil {
		t.Fatal(err)
	}
	c.Run(20)
	if got := c.DownRanks(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("DownRanks = %v, want [2]: the scheduled path crash must hit the pinned owner", got)
	}
	c.RunUntilDone(30000)
	if !c.Done() {
		t.Fatal("clients must finish")
	}
	checkAuthLive(t, c)
}
