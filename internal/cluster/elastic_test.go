package cluster

import (
	"testing"

	"repro/internal/audit"
	"repro/internal/elastic"
	"repro/internal/mds"
	"repro/internal/namespace"
)

// drainableRank finds a live rank that currently governs at least one
// subtree entry and qualifies for StartDrain (no active inbound
// export), stepping the cluster until one exists.
func drainableRank(t *testing.T, c *Cluster, maxTicks int64) int {
	t.Helper()
	for c.Tick() < maxTicks {
		inbound := make(map[namespace.MDSID]bool)
		c.Migrator().ForEachActive(func(task *mds.ExportTask) { inbound[task.To] = true })
		for i, s := range c.Servers() {
			if s.Up() && !s.Draining() && !inbound[namespace.MDSID(i)] &&
				len(c.Partition().EntriesOf(namespace.MDSID(i))) > 0 {
				return i
			}
		}
		c.Step()
	}
	t.Fatal("no drainable rank with entries found")
	return -1
}

// TestDrainDecommission is the core graceful-drain contract: a drained
// rank ends up governing zero subtree entries, is decommissioned (not
// down), never reappears as an import target, and the run loses no ops
// — all under per-tick auditing.
func TestDrainDecommission(t *testing.T) {
	aud := audit.New(audit.Options{EveryTick: true})
	c := newTestCluster(t, Config{MDS: 6, Workload: failoverZipf(), Audit: aud})
	c.Run(60)
	victim := drainableRank(t, c, 200)
	if !c.StartDrain(victim) {
		t.Fatalf("StartDrain(%d) refused", victim)
	}
	if got := c.DrainingRanks(); len(got) != 1 || got[0] != victim {
		t.Fatalf("DrainingRanks = %v, want [%d]", got, victim)
	}
	if c.StartDrain(victim) {
		t.Fatal("draining a draining rank must refuse")
	}
	// The drain must finish while the workload still runs.
	for c.Tick() < 5000 && !c.Servers()[victim].Decommissioned() {
		c.Step()
	}
	if !c.Servers()[victim].Decommissioned() {
		t.Fatal("drain never completed")
	}
	if n := len(c.Partition().EntriesOf(namespace.MDSID(victim))); n != 0 {
		t.Fatalf("decommissioned rank still governs %d entries", n)
	}
	if got := c.ranksWhere((*mds.Server).Decommissioned); len(got) != 1 || got[0] != victim {
		t.Fatalf("decommissioned ranks = %v, want [%d]", got, victim)
	}
	if len(c.DownRanks()) != 0 {
		t.Fatalf("DownRanks = %v: a decommissioned rank is not down", c.DownRanks())
	}
	if c.RecoverMDS(victim) {
		t.Fatal("a decommissioned rank must not rejoin")
	}
	if c.DrainsDone() != 1 {
		t.Fatalf("DrainsDone = %d, want 1", c.DrainsDone())
	}
	end := c.RunUntilDone(30000)
	if !c.Done() {
		t.Fatalf("clients unfinished at tick %d after a drain", end)
	}
	if n := c.Servers()[victim].OpsTotal(); n == 0 {
		t.Fatal("victim served nothing before its drain — test proves too little")
	}
	var clientOps, served int64
	for _, cl := range c.Clients() {
		clientOps += cl.OpsDone()
	}
	for _, s := range c.Servers() {
		served += s.OpsTotal()
	}
	if clientOps != served {
		t.Fatalf("client ops %d != served ops %d: the drain lost requests", clientOps, served)
	}
	for _, v := range aud.Violations() {
		t.Errorf("audit violation: %s", v)
	}
}

// TestAddMDSMidRunAuditClean is the scale-up regression: a rank added
// mid-run is immediately audit-clean and becomes an import target —
// it actually receives subtrees and serves ops — in the epochs that
// follow.
func TestAddMDSMidRunAuditClean(t *testing.T) {
	aud := audit.New(audit.Options{EveryTick: true})
	// Capacity is sized so the post-join skew reads as harmful: the
	// urgency logistic (Equation 2) suppresses migration when the
	// hottest rank sits far below capacity, and a rank that joins a
	// benignly-imbalanced cluster is correctly left empty.
	c := newTestCluster(t, Config{MDS: 4, Clients: 16, Capacity: 1000, Workload: failoverZipf(), Audit: aud})
	const joinTick = 55
	c.ScheduleAddMDS(joinTick, 1)
	c.RunUntilDone(30000)
	if !c.Done() {
		t.Fatal("clients must finish")
	}
	if len(c.Servers()) != 5 {
		t.Fatalf("cluster size %d, want 5 after mid-run AddMDS", len(c.Servers()))
	}
	joined := c.Servers()[4]
	if joined.OpsTotal() == 0 {
		t.Fatal("the joined rank never served an op: it never became an import target")
	}
	for _, v := range aud.Violations() {
		t.Errorf("audit violation: %s", v)
	}
}

// TestDrainCrashHandsOverOnce is the drain+crash interplay: crashing a
// rank mid-drain cancels the drain, and everything it still governed
// reaches survivors through the normal takeover path exactly once.
func TestDrainCrashHandsOverOnce(t *testing.T) {
	const window = 12
	aud := audit.New(audit.Options{EveryTick: true})
	c := newTestCluster(t, Config{
		MDS: 6, Workload: failoverZipf(), RecoveryTicks: window, Audit: aud,
	})
	c.Run(60)
	victim := drainableRank(t, c, 200)
	if !c.StartDrain(victim) {
		t.Fatalf("StartDrain(%d) refused", victim)
	}
	// Let the drain make progress but crash before it completes.
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
	if got := c.DownRanks(); len(got) != 1 || got[0] != victim {
		t.Fatalf("DownRanks = %v, want [%d]", got, victim)
	}
	// Past the recovery window the orphans must be on survivors.
	c.Run(window + 2)
	for _, e := range c.Partition().Entries() {
		if int(e.Auth) == victim {
			t.Fatalf("entry %v still owned by the crashed mid-drain rank", e.Key)
		}
	}
	takeovers := 0
	for _, ev := range c.Metrics().RecoveryEvents() {
		if ev.Rank == victim {
			takeovers++
		}
	}
	if takeovers != 1 {
		t.Fatalf("takeovers for rank %d = %d, want exactly 1", victim, takeovers)
	}
	c.RunUntilDone(30000)
	if !c.Done() {
		t.Fatal("clients must finish")
	}
	for _, v := range aud.Violations() {
		t.Errorf("audit violation: %s", v)
	}
}

// TestPinnedSubtreeDrain is the chosen pin-vs-drain policy: draining a
// rank unpins any subtree pinned to it and exports it like the rest —
// the pin registry forgets it, the subtree lands on a live rank, and
// pinning *to* a draining or retired rank is refused.
func TestPinnedSubtreeDrain(t *testing.T) {
	aud := audit.New(audit.Options{EveryTick: true})
	c := newTestCluster(t, Config{MDS: 6, Workload: failoverZipf(), Audit: aud})
	c.Run(60)
	victim := drainableRank(t, c, 200)
	if err := c.PinPath("/zipf/client000", victim); err != nil {
		t.Fatal(err)
	}
	dir, _ := c.Tree().Lookup("/zipf/client000")
	key := c.Partition().GoverningEntry(dir.Children()[0]).Key
	if r, ok := c.pins[key]; !ok || r != victim {
		t.Fatalf("pins[%v] = %d,%v; want %d,true", key, r, ok, victim)
	}
	if !c.StartDrain(victim) {
		t.Fatalf("StartDrain(%d) refused", victim)
	}
	if _, ok := c.pins[key]; ok {
		t.Fatal("drain must unpin subtrees pinned to the draining rank")
	}
	if err := c.PinPath("/zipf/client001", victim); err == nil {
		t.Fatal("pinning to a draining rank must refuse")
	}
	for c.Tick() < 5000 && !c.Servers()[victim].Decommissioned() {
		c.Step()
	}
	if !c.Servers()[victim].Decommissioned() {
		t.Fatal("drain never completed")
	}
	auth := c.Partition().AuthOf(dir.Children()[0])
	if int(auth) == victim || !c.Servers()[auth].Up() {
		t.Fatalf("formerly-pinned subtree on rank %d (victim %d): not a live survivor", auth, victim)
	}
	if err := c.PinPath("/zipf/client001", victim); err == nil {
		t.Fatal("pinning to a decommissioned rank must refuse")
	}
	for _, v := range aud.Violations() {
		t.Errorf("audit violation: %s", v)
	}
}

// elasticPolicy is the 4..8 test policy of the scale-cycle tests.
func elasticPolicy() elastic.Policy {
	p := elastic.DefaultPolicy()
	p.MinRanks, p.MaxRanks = 4, 8
	return p
}

// checkScaleCycle asserts one full scale cycle of the
// elastic-scale-cycle row: the cluster grew under saturation, drained
// back to the policy floor once idle, and lost no request.
func checkScaleCycle(t *testing.T, r *run) {
	c := r.c
	if c.ScaleUps() == 0 {
		t.Error("saturated cluster never scaled up")
	}
	if c.DrainsDone() == 0 {
		t.Error("idle cluster never drained back down")
	}
	if len(c.Servers()) <= 4 {
		t.Errorf("cluster size %d never grew past the floor", len(c.Servers()))
	}
	if got, want := len(c.ranksWhere(isActive)), elasticPolicy().MinRanks; got != want {
		t.Errorf("settled at %d active ranks, want the policy floor %d", got, want)
	}
	var clientOps, served int64
	for _, cl := range c.Clients() {
		clientOps += cl.OpsDone()
	}
	for _, s := range c.Servers() {
		served += s.OpsTotal()
	}
	if clientOps != served {
		t.Errorf("client ops %d != served ops %d across the scale cycle", clientOps, served)
	}
}
