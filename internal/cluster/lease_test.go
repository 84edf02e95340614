package cluster

import (
	"testing"

	"repro/internal/audit"
	"repro/internal/replica"
	"repro/internal/workload"
)

// leaseManager builds a lease-enabled replication manager for tests.
func leaseManager(r int, leaseTicks int64, readFrac float64) *replica.Manager {
	pol := replica.DefaultPolicy()
	pol.R = r
	pol.LeaseTicks = leaseTicks
	pol.ReplicateReadFrac = readFrac
	return replica.MustManager(pol)
}

// stormWorkload is a shared-directory read storm sized for integration
// tests; writeEvery > 0 mixes lease-invalidating creates into the reads.
func stormWorkload(writeEvery int) workload.Generator {
	return workload.NewReadStorm(workload.ReadStormConfig{
		Files:        300,
		OpsPerClient: 6000,
		WriteEvery:   writeEvery,
	})
}

// TestDrainRehomesStandby is the rank-eligibility regression for the
// replica placement fix: draining a rank that hosts standby copies must
// drop them immediately and re-home them onto ranks that are staying
// (Active — never the draining rank itself, which the old Up()-based
// eligibility gate considered a valid host).
func TestDrainRehomesStandby(t *testing.T) {
	aud := audit.New(audit.Options{EveryTick: true})
	c := newTestCluster(t, Config{
		MDS:         5,
		Workload:    failoverZipf(),
		Replication: replica.MustManager(replica.DefaultPolicy()),
		Audit:       aud,
	})
	c.Run(60)
	victim := -1
	for i := 0; i < 200 && victim < 0; i++ {
		cand := -1
		c.Replicas().ForEachGroup(func(g *replica.Group) {
			for _, sb := range g.Standbys {
				if cand < 0 && !sb.Syncing {
					cand = int(sb.Rank)
				}
			}
		})
		if cand >= 0 && c.StartDrain(cand) {
			victim = cand
			break
		}
		c.Step()
	}
	if victim < 0 {
		t.Fatal("no drainable standby-hosting rank found")
	}
	// The drain drops the rank's standbys synchronously; give the
	// re-replicator a few epochs to restore R on the survivors.
	c.Run(40)
	groups := 0
	c.Replicas().ForEachGroup(func(g *replica.Group) {
		groups++
		for _, sb := range g.Standbys {
			if int(sb.Rank) == victim {
				t.Fatalf("group %v still has a standby on the draining rank %d", g.Key, victim)
			}
			s := c.Servers()[sb.Rank]
			if !s.Up() || s.Draining() {
				t.Fatalf("group %v standby re-homed onto ineligible rank %d", g.Key, sb.Rank)
			}
		}
	})
	if groups == 0 {
		t.Fatal("no replication groups tracked")
	}
	c.RunUntilDone(30000)
	if !c.Done() {
		t.Fatal("clients must finish")
	}
	for _, v := range aud.Violations() {
		t.Errorf("audit violation: %s", v)
	}
}

// TestLeaseReadStormAudited is the tentpole integration check: a
// shared-directory read storm on a lease-enabled cluster gets real
// lease serving — grants happen, non-authoritative holders serve reads
// — with every lease invariant audited on every tick.
func TestLeaseReadStormAudited(t *testing.T) {
	aud := audit.New(audit.Options{EveryTick: true})
	c := newTestCluster(t, Config{
		MDS:         5,
		Clients:     16,
		Workload:    stormWorkload(0),
		Replication: leaseManager(3, 30, 0.6),
		Audit:       aud,
	})
	c.RunUntilDone(30000)
	if !c.Done() {
		t.Fatal("clients must finish")
	}
	if c.Replicas().LeasesGranted() == 0 {
		t.Fatal("read storm granted no leases")
	}
	if c.LeaseServes() == 0 {
		t.Fatal("no ops served by lease holders")
	}
	for _, v := range aud.Violations() {
		t.Errorf("audit violation: %s", v)
	}
}

// TestLeaseWriteInvalidation mixes creates into the storm: every write
// to a leased subtree must revoke its leases where it is served, and
// the per-tick audit proves no write-invalidated subtree ends a tick
// with live leases. Leases still re-form between writes, so holder
// serving stays active.
func TestLeaseWriteInvalidation(t *testing.T) {
	aud := audit.New(audit.Options{EveryTick: true})
	c := newTestCluster(t, Config{
		MDS:         5,
		Clients:     16,
		Workload:    stormWorkload(25),
		Replication: leaseManager(3, 30, 0.6),
		Audit:       aud,
	})
	c.RunUntilDone(30000)
	if !c.Done() {
		t.Fatal("clients must finish")
	}
	if c.Replicas().LeasesRevoked() == 0 {
		t.Fatal("writes to a leased subtree revoked nothing")
	}
	if c.LeaseServes() == 0 {
		t.Fatal("no ops served by lease holders between invalidations")
	}
	for _, v := range aud.Violations() {
		t.Errorf("audit violation: %s", v)
	}
}
