package cluster

import (
	"reflect"
	"testing"

	"repro/internal/audit"
	"repro/internal/namespace"
	"repro/internal/workload"
)

// failoverZipf is a workload long enough that clients are still running
// when mid-run crashes and recovery windows play out (the default
// smallZipf finishes around tick 40).
func failoverZipf() workload.Generator {
	return workload.NewZipf(workload.ZipfConfig{FilesPerClient: 200, OpsPerClient: 30000})
}

// checkAuthLive asserts the failover safety property: no subtree
// entry's authority points at a down rank once every crashed rank's
// recovery window has elapsed.
func checkAuthLive(t *testing.T, c *Cluster) {
	t.Helper()
	for _, e := range c.Partition().Entries() {
		if int(e.Auth) >= len(c.Servers()) {
			t.Fatalf("tick %d: entry %v auth %d beyond cluster size", c.Tick(), e.Key, e.Auth)
		}
		if !c.Servers()[e.Auth].Up() {
			t.Fatalf("tick %d: entry %v auth %d is a down rank", c.Tick(), e.Key, e.Auth)
		}
	}
}

// TestFailoverAuthNeverDown is the property test from the issue: after
// the recovery window, no subtree entry's Auth ever points at a down
// rank — stepping tick-by-tick through crash, takeover, rejoin, and a
// second crash of a different rank.
func TestFailoverAuthNeverDown(t *testing.T) {
	const window = 15
	c := newTestCluster(t, Config{RecoveryTicks: window, Workload: failoverZipf()})
	crashes := []struct {
		at   int64
		rank int
	}{{40, 0}, {200, 1}}
	rejoinAt := map[int64]int{140: 0, 300: 1}

	// safeAfter marks the tick from which the invariant must hold again
	// (the latest crash tick + window, +1 because the takeover event
	// fires during the step of its due tick).
	safeAfter := int64(0)
	ci := 0
	for tick := int64(0); tick < 600 && !c.Done(); tick++ {
		if ci < len(crashes) && tick == crashes[ci].at {
			if !c.CrashMDS(crashes[ci].rank) {
				t.Fatalf("crash of rank %d refused", crashes[ci].rank)
			}
			safeAfter = tick + window + 1
			ci++
		}
		if r, ok := rejoinAt[tick]; ok {
			if !c.RecoverMDS(r) {
				t.Fatalf("recover of rank %d refused", r)
			}
		}
		c.Step()
		if c.Tick() > safeAfter {
			checkAuthLive(t, c)
		}
	}
	c.RunUntilDone(20000)
	checkAuthLive(t, c)
	if !c.Done() {
		t.Fatal("clients must finish: zero lost ops")
	}
	if c.Metrics().StalledDownTotal() == 0 {
		t.Fatal("crashing an authoritative rank must stall some ops")
	}
}

// TestFailoverNoRejoinZeroLostOps crashes a rank permanently: orphans
// must be taken over by survivors and every client op must still
// complete.
func TestFailoverNoRejoinZeroLostOps(t *testing.T) {
	c := newTestCluster(t, Config{RecoveryTicks: 10, Workload: failoverZipf()})
	c.Run(50)
	rank := c.CrashHottest()
	if rank < 0 {
		t.Fatal("hottest-rank crash refused")
	}
	end := c.RunUntilDone(20000)
	if !c.Done() {
		t.Fatalf("clients unfinished at tick %d with rank %d down", end, rank)
	}
	checkAuthLive(t, c)
	if !reflect.DeepEqual(c.DownRanks(), []int{rank}) {
		t.Fatalf("down ranks = %v, want [%d]", c.DownRanks(), rank)
	}
	if len(c.Partition().EntriesOf(namespace.MDSID(rank))) != 0 {
		t.Fatal("dead rank must govern nothing after takeover")
	}
	evs := c.Metrics().RecoveryEvents()
	for _, ev := range evs {
		if ev.TicksToReassign() != 10 {
			t.Fatalf("reassign after %d ticks, want the 10-tick window", ev.TicksToReassign())
		}
	}
}

// TestFailoverRejoinBeforeWindowCancelsTakeover recovers the rank
// inside the recovery window: its subtrees must stay put.
func TestFailoverRejoinBeforeWindowCancelsTakeover(t *testing.T) {
	c := newTestCluster(t, Config{RecoveryTicks: 50, Workload: failoverZipf()})
	c.Run(60)
	rank := c.CrashHottest()
	if rank < 0 {
		t.Fatal("no crash")
	}
	owned := len(c.Partition().EntriesOf(namespace.MDSID(rank)))
	c.Run(10) // well inside the 50-tick window
	if !c.RecoverMDS(rank) {
		t.Fatal("recover refused")
	}
	c.Run(50) // past where the takeover would have fired
	if got := len(c.Partition().EntriesOf(namespace.MDSID(rank))); got != owned {
		t.Fatalf("rank %d governs %d entries after early rejoin, want %d (takeover cancelled)",
			rank, got, owned)
	}
	if len(c.Metrics().RecoveryEvents()) != 0 {
		t.Fatal("no takeover must be recorded for a cancelled window")
	}
	c.RunUntilDone(20000)
	if !c.Done() {
		t.Fatal("clients must finish")
	}
}

// TestCrashRefusals covers the guard rails: crashing the last survivor,
// an out-of-range rank, an already-down rank, or recovering an up rank
// are all refused.
func TestCrashRefusals(t *testing.T) {
	c := newTestCluster(t, Config{MDS: 2, RecoveryTicks: 5})
	if c.CrashMDS(-1) || c.CrashMDS(2) {
		t.Fatal("out-of-range crash must be refused")
	}
	if !c.CrashMDS(1) {
		t.Fatal("valid crash refused")
	}
	if c.CrashMDS(1) {
		t.Fatal("crashing a down rank must be refused")
	}
	if c.CrashMDS(0) {
		t.Fatal("crashing the last survivor must be refused")
	}
	if c.CrashHottest() != -1 {
		t.Fatal("hottest-crash with one survivor must be refused")
	}
	if c.RecoverMDS(0) {
		t.Fatal("recovering an up rank must be a no-op")
	}
	if !c.RecoverMDS(1) {
		t.Fatal("valid recover refused")
	}
	c.RunUntilDone(20000)
	if !c.Done() {
		t.Fatal("clients must finish")
	}
}

// TestClientBackoffOnDownRank checks clients apply capped exponential
// backoff only while their target is down, and that stalled ops are
// accounted.
func TestClientBackoffOnDownRank(t *testing.T) {
	c := newTestCluster(t, Config{MDS: 3, RecoveryTicks: 30, Workload: failoverZipf()})
	c.Run(40)
	rank := c.CrashHottest()
	if rank < 0 {
		t.Fatal("no crash")
	}
	c.Run(20) // inside the window: ops to orphaned subtrees stall
	rec := c.Metrics()
	if rec.StalledDownTotal() == 0 {
		t.Fatal("expected stalls on the downed hottest rank")
	}
	var retries int64
	maxBackoff := int64(0)
	for _, cl := range c.Clients() {
		retries += cl.Retries()
		if b := cl.Backoff(); b > maxBackoff {
			maxBackoff = b
		}
	}
	if retries == 0 {
		t.Fatal("expected client retries during the outage")
	}
	if maxBackoff > 16 {
		t.Fatalf("backoff %d exceeds the 16-tick cap", maxBackoff)
	}
	c.RunUntilDone(20000)
	if !c.Done() {
		t.Fatal("clients must finish")
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
