package cluster

import (
	"testing"

	"repro/internal/audit"
	"repro/internal/fault"
	"repro/internal/rng"
)

// TestAuditCleanUnderMTBFChurn runs a stochastic crash/recovery storm
// (generated MTBF schedule, 8 ranks, always one survivor) with per-tick
// auditing: every cross-module invariant must hold through repeated
// orphan takeovers, migration aborts, and rejoins.
func TestAuditCleanUnderMTBFChurn(t *testing.T) {
	sched := fault.MTBF(fault.MTBFConfig{
		Ranks:   8,
		MTBF:    200,
		MTTR:    40,
		Horizon: 900,
	}, rng.New(7))
	if len(sched.Events) == 0 {
		t.Fatal("MTBF schedule generated no faults")
	}
	aud := audit.New(audit.Options{EveryTick: true})
	c := newTestCluster(t, Config{
		MDS:           8,
		Clients:       24,
		Seed:          11,
		RecoveryTicks: 12,
		Faults:        &sched,
		Workload:      failoverZipf(),
		Audit:         aud,
	})
	c.RunUntilDone(30000)
	if !c.Done() {
		t.Fatal("clients must finish")
	}
	if aud.Passes() == 0 {
		t.Fatal("auditor never ran")
	}
	for _, v := range aud.Violations() {
		t.Errorf("audit violation: %s", v)
	}
}
