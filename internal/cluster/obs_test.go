package cluster

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/workload"
)

// TestTraceFailoverSequence asserts the event stream tells the failover
// story in order: a crash (aborting in-flight exports), the orphan
// takeover after the recovery window, backoff churn in between, and
// the eventual recovery.
func TestTraceFailoverSequence(t *testing.T) {
	ring := obs.NewRing(1 << 16)
	toRing := &axis{apply: func(cfg *Config) { cfg.Bus = obs.NewBus(ring) }}
	runScenario(t, scenarioNamed(t, "crash-recover"), toRing)

	crashes := ring.OfType(obs.EvCrash)
	if len(crashes) != 2 {
		t.Fatalf("want 2 crash events, got %d", len(crashes))
	}
	takeovers := ring.OfType(obs.EvTakeover)
	if len(takeovers) == 0 {
		t.Fatal("no orphan takeover traced")
	}
	recovers := ring.OfType(obs.EvRecover)
	if len(recovers) != 2 {
		t.Fatalf("want 2 recover events, got %d", len(recovers))
	}
	// The first takeover fires exactly one recovery window after the
	// first crash and references it.
	first := takeovers[0]
	if first.Tick != crashes[0].Tick+12 {
		t.Fatalf("takeover at tick %d, crash at %d, want a 12-tick window", first.Tick, crashes[0].Tick)
	}
	if first.Fields["crash_tick"].(int64) != crashes[0].Tick {
		t.Fatalf("takeover crash_tick = %v, want %d", first.Fields["crash_tick"], crashes[0].Tick)
	}
	if first.Fields["entries"].(int) <= 0 {
		t.Fatal("takeover must reassign at least one entry")
	}
	// Clients backed off during the outage and every enter has a
	// matching exit by run end (the run completed).
	enters := ring.OfType(obs.EvBackoffEnter)
	if len(enters) == 0 {
		t.Fatal("no client backoff traced across two crashes")
	}
	if enters[0].Tick < crashes[0].Tick {
		t.Fatal("backoff before the first crash")
	}
	// Epoch snapshots carry per-rank liveness: some rank event must
	// show up=false while a rank is down.
	sawDown := false
	for _, ev := range ring.OfType(obs.EvRank) {
		if up, ok := ev.Fields["up"].(bool); ok && !up {
			sawDown = true
			break
		}
	}
	if !sawDown {
		t.Fatal("no rank snapshot recorded a down rank")
	}
}

// TestRecoveryClearsClientBackoff is the cluster-level regression test
// for the backoff bugfix: a client deep in backoff when its rank
// recovers must retry immediately instead of sleeping out the rest of
// its capped exponential wait.
func TestRecoveryClearsClientBackoff(t *testing.T) {
	ring := obs.NewRing(1 << 16)
	// MD-shared pins every client on one hot directory, so crashing the
	// hottest rank drives all of them into deep backoff.
	c := newTestCluster(t, Config{
		MDS:           3,
		RecoveryTicks: 500, // window far beyond the recovery point
		Workload:      workload.NewMDShared(workload.MDSharedConfig{CreatesPerClient: 20000}),
		Bus:           obs.NewBus(ring),
	})
	c.Run(40)
	rank := c.CrashHottest()
	if rank < 0 {
		t.Fatal("no crash")
	}
	c.Run(60) // long outage: backoff reaches the 16-tick cap
	deep := 0
	for _, cl := range c.Clients() {
		if cl.Backoff() >= 8 {
			deep++
		}
	}
	if deep == 0 {
		t.Fatal("expected clients in deep backoff during the outage")
	}
	recoverTick := c.Tick()
	if !c.RecoverMDS(rank) {
		t.Fatal("recover refused")
	}
	for _, cl := range c.Clients() {
		if cl.Backoff() != 0 {
			t.Fatalf("client still backing off after recovery: %d", cl.Backoff())
		}
		if !cl.RetryReady(recoverTick + 1) {
			t.Fatal("client not retry-ready right after recovery")
		}
	}
	// Throughput resumes on the very next tick, not after the stale
	// retry timers would have expired.
	before := c.Metrics().TotalOps()
	c.Run(1)
	if c.Metrics().TotalOps() <= before {
		t.Fatal("no ops served on the first tick after recovery")
	}
	// And the trace records the forced exits.
	sawRecoveryExit := false
	for _, ev := range ring.OfType(obs.EvBackoffExit) {
		if ev.Fields["reason"] == "recovery" {
			sawRecoveryExit = true
			break
		}
	}
	if !sawRecoveryExit {
		t.Fatal("no backoff_exit(recovery) event traced")
	}
	c.RunUntilDone(20000)
	if !c.Done() {
		t.Fatal("clients must finish")
	}
}
